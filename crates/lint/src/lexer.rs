//! A pure-`std` Rust lexer.
//!
//! Produces a token stream with line numbers plus a per-line comment
//! index. It handles every lexical shape that could hide a lock or a
//! write from the analysis, or make one up: nested block comments, raw
//! strings (`r#"…"#`), byte/raw-byte strings, char literals vs.
//! lifetimes, and numeric literals with suffixes. Comments become
//! *trivia* — they never reach the analysis, but their text is kept (per
//! line) so `lint:allow(lock-order)` suppression lines still work.

/// One lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `state`, `Request`, …).
    Ident(String),
    /// Lifetime (`'a`, `'static`) — distinguished from char literals.
    Lifetime(String),
    /// Numeric literal (`48`, `0x7B`, `1_000u64`, `1.5e3`).
    Num,
    /// String literal with its *cooked* content (escapes resolved for
    /// ordinary strings, verbatim for raw strings).
    Str(String),
    /// Char or byte literal (content irrelevant to the analysis).
    Char,
    /// Punctuation. Selected two-char operators arrive joined:
    /// `::`, `=>`, `->`, `<<`, `>>`, `&&`, `||`, `..`.
    Punct(&'static str),
}

impl Tok {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True for `Punct(p)` equal to `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        matches!(self, Tok::Punct(q) if *q == p)
    }

    /// True for the identifier `kw`.
    pub fn is_ident(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(s) if s == kw)
    }
}

/// A token plus the 1-based source line it starts on.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number.
    pub line: usize,
}

/// The lexed file: tokens plus comment trivia, indexed by line.
pub struct Lexed {
    /// The token stream, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// Comment text per 1-based line. A block comment contributes its
    /// text to every line it spans.
    pub comments: Vec<(usize, String)>,
}

impl Lexed {
    /// All comment text attached to `line`, concatenated.
    pub fn comment_on(&self, line: usize) -> String {
        let mut out = String::new();
        for (l, text) in &self.comments {
            if *l == line {
                out.push_str(text);
                out.push(' ');
            }
        }
        out
    }
}

/// Two-char operators the lexer joins (longest-match, in source order).
const JOINED: [&str; 8] = ["::", "=>", "->", "<<", ">>", "&&", "||", ".."];

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic() || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80
}

/// Lex `src` into tokens and comment trivia. The lexer is total: any
/// byte sequence produces *some* stream (unterminated literals run to
/// end of file), so the analysis never panics on malformed input.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut tokens = Vec::new();
    let mut comments: Vec<(usize, String)> = Vec::new();

    while let Some(b) = c.peek() {
        let line = c.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                let start = c.pos;
                while c.peek().is_some_and(|b| b != b'\n') {
                    c.bump();
                }
                comments.push((line, String::from_utf8_lossy(&c.src[start..c.pos]).into()));
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                lex_block_comment(&mut c, &mut comments);
            }
            b'"' => {
                c.bump();
                tokens.push(Token {
                    tok: Tok::Str(lex_string_body(&mut c)),
                    line,
                });
            }
            b'\'' => {
                c.bump();
                tokens.push(Token {
                    tok: lex_char_or_lifetime(&mut c),
                    line,
                });
            }
            _ if is_ident_start(b) => {
                // Raw-string / byte-string / raw-identifier prefixes are
                // resolved before falling back to a plain identifier.
                if let Some(tok) = lex_prefixed_literal(&mut c) {
                    tokens.push(Token { tok, line });
                } else {
                    let start = c.pos;
                    while c.peek().is_some_and(is_ident_continue) {
                        c.bump();
                    }
                    let text = String::from_utf8_lossy(&c.src[start..c.pos]).into_owned();
                    tokens.push(Token {
                        tok: Tok::Ident(text),
                        line,
                    });
                }
            }
            _ if b.is_ascii_digit() => {
                tokens.push(Token {
                    tok: lex_number(&mut c),
                    line,
                });
            }
            _ => {
                if let Some(op) = JOINED.iter().find(|op| c.starts_with(op)) {
                    // `..` must not split `...`/`..=`; all joined ops here
                    // are only used by pattern matchers, so longest-match
                    // on the two-char form is sufficient.
                    c.bump();
                    c.bump();
                    tokens.push(Token {
                        tok: Tok::Punct(op),
                        line,
                    });
                } else {
                    c.bump();
                    tokens.push(Token {
                        tok: Tok::Punct(punct_str(b)),
                        line,
                    });
                }
            }
        }
    }

    Lexed { tokens, comments }
}

/// Map a single punctuation byte to a static string.
fn punct_str(b: u8) -> &'static str {
    const TABLE: &[(u8, &str)] = &[
        (b'{', "{"),
        (b'}', "}"),
        (b'(', "("),
        (b')', ")"),
        (b'[', "["),
        (b']', "]"),
        (b';', ";"),
        (b',', ","),
        (b'.', "."),
        (b':', ":"),
        (b'=', "="),
        (b'<', "<"),
        (b'>', ">"),
        (b'&', "&"),
        (b'|', "|"),
        (b'+', "+"),
        (b'-', "-"),
        (b'*', "*"),
        (b'/', "/"),
        (b'%', "%"),
        (b'^', "^"),
        (b'!', "!"),
        (b'?', "?"),
        (b'#', "#"),
        (b'@', "@"),
        (b'$', "$"),
        (b'~', "~"),
        (b'\\', "\\"),
    ];
    TABLE
        .iter()
        .find(|(k, _)| *k == b)
        .map(|(_, s)| *s)
        .unwrap_or("?")
}

/// Nested block comment; text recorded per spanned line.
fn lex_block_comment(c: &mut Cursor<'_>, comments: &mut Vec<(usize, String)>) {
    c.bump(); // /
    c.bump(); // *
    let mut depth = 1usize;
    let mut line = c.line;
    let mut text = String::new();
    while depth > 0 {
        if c.starts_with("/*") {
            depth += 1;
            c.bump();
            c.bump();
            text.push_str("/*");
        } else if c.starts_with("*/") {
            depth -= 1;
            c.bump();
            c.bump();
        } else {
            match c.bump() {
                Some(b'\n') => {
                    comments.push((line, std::mem::take(&mut text)));
                    line = c.line;
                }
                Some(b) => text.push(b as char),
                None => break, // unterminated: runs to EOF
            }
        }
    }
    comments.push((line, text));
}

/// Body of a `"`-delimited string, opening quote already consumed.
/// Returns the cooked content (common escapes resolved).
fn lex_string_body(c: &mut Cursor<'_>) -> String {
    let mut out = String::new();
    while let Some(b) = c.bump() {
        match b {
            b'"' => break,
            b'\\' => match c.bump() {
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'\\') => out.push('\\'),
                Some(b'"') => out.push('"'),
                Some(b'\n') => { /* line continuation */ }
                Some(other) => {
                    // \u{…}, \x.. and friends: keep raw, the analysis
                    // only reads plain-ASCII names.
                    out.push('\\');
                    out.push(other as char);
                }
                None => break,
            },
            _ => out.push(b as char),
        }
    }
    out
}

/// After a `'`: a lifetime (`'a`) or a char literal (`'a'`, `'\n'`).
fn lex_char_or_lifetime(c: &mut Cursor<'_>) -> Tok {
    match c.peek() {
        Some(b'\\') => {
            // Escaped char literal: consume escape then closing quote.
            c.bump();
            c.bump();
            while c.peek().is_some_and(|b| b != b'\'') {
                c.bump();
            }
            c.bump();
            Tok::Char
        }
        Some(b) if is_ident_start(b) => {
            let start = c.pos;
            while c.peek().is_some_and(is_ident_continue) {
                c.bump();
            }
            if c.peek() == Some(b'\'') {
                c.bump();
                Tok::Char
            } else {
                Tok::Lifetime(String::from_utf8_lossy(&c.src[start..c.pos]).into_owned())
            }
        }
        _ => {
            // `'('`, `' '`, unterminated — consume one char + quote.
            c.bump();
            if c.peek() == Some(b'\'') {
                c.bump();
            }
            Tok::Char
        }
    }
}

/// `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, `b'c'`, `r#ident`.
/// Returns `None` when the cursor is on a plain identifier.
fn lex_prefixed_literal(c: &mut Cursor<'_>) -> Option<Tok> {
    let b0 = c.peek()?;
    let b1 = c.peek_at(1);
    match (b0, b1) {
        // r"…" / r#…  (raw string or raw identifier)
        (b'r', Some(b'"')) => {
            c.bump();
            c.bump();
            Some(Tok::Str(raw_string_body(c, 0)))
        }
        (b'r', Some(b'#')) => {
            // Count hashes; a following quote means raw string, an
            // identifier char means raw identifier (`r#type`).
            let mut hashes = 0;
            while c.peek_at(1 + hashes) == Some(b'#') {
                hashes += 1;
            }
            if c.peek_at(1 + hashes) == Some(b'"') {
                for _ in 0..hashes + 2 {
                    c.bump();
                }
                Some(Tok::Str(raw_string_body(c, hashes)))
            } else if hashes == 1 {
                c.bump(); // r
                c.bump(); // #
                let start = c.pos;
                while c.peek().is_some_and(is_ident_continue) {
                    c.bump();
                }
                Some(Tok::Ident(
                    String::from_utf8_lossy(&c.src[start..c.pos]).into_owned(),
                ))
            } else {
                None
            }
        }
        // b"…" / b'c' / br"…" / br#"…"#
        (b'b', Some(b'"')) => {
            c.bump();
            c.bump();
            Some(Tok::Str(lex_string_body(c)))
        }
        (b'b', Some(b'\'')) => {
            c.bump();
            c.bump();
            Some(lex_char_or_lifetime(c))
        }
        (b'b', Some(b'r')) => {
            let mut hashes = 0;
            while c.peek_at(2 + hashes) == Some(b'#') {
                hashes += 1;
            }
            if c.peek_at(2 + hashes) == Some(b'"') {
                for _ in 0..hashes + 3 {
                    c.bump();
                }
                Some(Tok::Str(raw_string_body(c, hashes)))
            } else {
                None
            }
        }
        // c"…" (C strings, Rust 1.77+) — lex like a plain string.
        (b'c', Some(b'"')) => {
            c.bump();
            c.bump();
            Some(Tok::Str(lex_string_body(c)))
        }
        _ => None,
    }
}

/// Raw string body: runs until `"` followed by `hashes` `#`s. No
/// escapes — that is the point of raw strings.
fn raw_string_body(c: &mut Cursor<'_>, hashes: usize) -> String {
    let mut out = String::new();
    while let Some(b) = c.peek() {
        if b == b'"' {
            let mut ok = true;
            for i in 0..hashes {
                if c.peek_at(1 + i) != Some(b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..hashes + 1 {
                    c.bump();
                }
                return out;
            }
        }
        out.push(b as char);
        c.bump();
    }
    out
}

/// Numeric literal: integer/float with separators and suffixes. A `.`
/// is consumed only when followed by a digit (so `1.max(2)` and `0..n`
/// lex as number-then-punct).
fn lex_number(c: &mut Cursor<'_>) -> Tok {
    // 0x / 0o / 0b prefix
    if c.peek() == Some(b'0')
        && matches!(
            c.peek_at(1),
            Some(b'x') | Some(b'o') | Some(b'b') | Some(b'X')
        )
    {
        c.bump();
        c.bump();
    }
    loop {
        match c.peek() {
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' => {
                c.bump();
            }
            Some(b'.') if c.peek_at(1).is_some_and(|d| d.is_ascii_digit()) => {
                c.bump();
            }
            _ => break,
        }
    }
    Tok::Num
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.tok.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn block_comments_are_trivia() {
        let l = lex("let a = 1; /* Instant::now() */ let b = 2;\n");
        assert_eq!(idents("let a = 1; /* Instant::now() */ let b = 2;"), {
            vec!["let", "a", "let", "b"]
        });
        assert!(l.comment_on(1).contains("Instant::now"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
    }

    #[test]
    fn multiline_block_comment_tracks_lines() {
        let src = "/* a\n b lint:allow(x)\n c */\nfn f() {}\n";
        let l = lex(src);
        assert!(l.comment_on(2).contains("lint:allow(x)"));
        assert_eq!(l.tokens[0].line, 4);
    }

    #[test]
    fn raw_strings_are_strings_not_code() {
        let src = r####"let s = r#"Instant::now() "quoted" here"#; fn g() {}"####;
        assert_eq!(idents(src), vec!["let", "s", "fn", "g"]);
        let l = lex(src);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["Instant::now() \"quoted\" here".to_string()]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        assert_eq!(idents(r##"let x = b"abc"; let y = br#"d"e"#;"##), {
            vec!["let", "x", "let", "y"]
        });
    }

    #[test]
    fn char_vs_lifetime() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Lifetime(_)))
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars = l
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Char))
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn strings_hide_comment_markers() {
        let src = r#"let s = "// not a comment"; let t = 1;"#;
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
        assert!(lex(src).comments.is_empty());
    }

    #[test]
    fn numbers_are_single_tokens() {
        let l = lex("const A: u64 = 1_000; let b = 0x7B + 48u32 + 1.5e3; 0..n;");
        let nums = l.tokens.iter().filter(|t| t.tok == Tok::Num).count();
        assert_eq!(nums, 5);
        assert!(l.tokens.iter().any(|t| t.tok.is_punct("..")));
    }

    #[test]
    fn shift_operators_join() {
        let l = lex("let t = (d << 48) | raw;");
        assert!(l.tokens.iter().any(|t| t.tok.is_punct("<<")));
    }

    #[test]
    fn line_numbers_are_accurate() {
        let l = lex("fn a() {}\nfn b() {}\nfn c() {}\n");
        let fns: Vec<usize> = l
            .tokens
            .iter()
            .filter(|t| t.tok.is_ident("fn"))
            .map(|t| t.line)
            .collect();
        assert_eq!(fns, vec![1, 2, 3]);
    }

    #[test]
    fn lexer_is_total_on_garbage() {
        // Unterminated literals must not panic or loop.
        for src in ["\"abc", "r#\"abc", "'x", "/* open", "b'"] {
            let _ = lex(src);
        }
    }
}
