//! Brace-aware item walker over the token stream.
//!
//! Extracts what the analysis needs from a lexed file without a full
//! parse: function bodies (with their enclosing `impl` type), item-level
//! `#[cfg(test)]` regions, and `// lint:allow(lock-order)` suppression
//! lines.

use crate::lexer::{lex, Lexed, Tok, Token};
use std::path::PathBuf;

/// A function item: `Type::name` when defined in an `impl Type` block.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` self-type, if any.
    pub impl_type: Option<String>,
    /// Token index of the body's `{`.
    pub body_start: usize,
    /// Token index one past the body's `}`.
    pub body_end: usize,
    /// Whole item sits in a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A lexed-and-walked source file.
pub struct SourceFile {
    /// Path relative to the workspace root (`/`-separated).
    pub rel: PathBuf,
    /// Token stream + comment trivia.
    pub lexed: Lexed,
    /// Every function item found, in source order.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Lex and walk `src`.
    pub fn parse(rel: PathBuf, src: &str) -> SourceFile {
        let lexed = lex(src);
        let in_test = mark_test_regions(&lexed.tokens);
        let fns = collect_fns(&lexed.tokens, &in_test);
        SourceFile { rel, lexed, fns }
    }

    /// File stem (`service` for `crates/core/src/service.rs`).
    pub fn stem(&self) -> String {
        self.rel
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    }

    /// Is a finding at `line` suppressed by a `// lint:allow(lock-order)`
    /// comment on that line or the line above?
    pub fn allowed(&self, line: usize) -> bool {
        let near = |l: usize| self.lexed.comment_on(l).contains("lint:allow(lock-order)");
        near(line) || (line > 1 && near(line - 1))
    }

    /// Tokens of a function body (inclusive of braces).
    pub fn body(&self, f: &FnItem) -> &[Token] {
        &self.lexed.tokens[f.body_start..f.body_end]
    }
}

/// Mark each token as test/non-test by tracking `#[cfg(test)]` item
/// attributes: the attribute plus the item it decorates (to the close
/// of its brace block, or to `;` for braceless items).
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            let attr_end = attr_close(tokens, i);
            // Everything from the attribute through the decorated item.
            let item_end = item_close(tokens, attr_end);
            for flag in in_test.iter_mut().take(item_end).skip(i) {
                *flag = true;
            }
            i = item_end;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Does `#[…]` starting at `i` contain the ident `test` (covers
/// `#[cfg(test)]` and `#[cfg(all(test, …))]`)?
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if !tokens[i].tok.is_punct("#") || !tokens.get(i + 1).is_some_and(|t| t.tok.is_punct("[")) {
        return false;
    }
    if !tokens.get(i + 2).is_some_and(|t| t.tok.is_ident("cfg")) {
        return false;
    }
    let end = attr_close(tokens, i);
    tokens[i..end].iter().any(|t| t.tok.is_ident("test"))
}

/// One past the `]` closing the attribute at `i` (which is on `#`).
fn attr_close(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(i + 1) {
        if t.tok.is_punct("[") {
            depth += 1;
        } else if t.tok.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    tokens.len()
}

/// One past the end of the item starting at `start`: through its first
/// brace block, or through `;` if none opens first. Nested attributes
/// before the item keyword are skipped naturally (brace search).
fn item_close(tokens: &[Token], start: usize) -> usize {
    let mut j = start;
    // Skip any further attributes on the same item.
    while j < tokens.len()
        && tokens[j].tok.is_punct("#")
        && tokens.get(j + 1).is_some_and(|t| t.tok.is_punct("["))
    {
        j = attr_close(tokens, j);
    }
    let mut depth = 0i64;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.tok.is_punct("{") {
            depth += 1;
        } else if t.tok.is_punct("}") {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        } else if t.tok.is_punct(";") && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    tokens.len()
}

/// Collect every `fn` item with a body, tracking the enclosing `impl`
/// self-type via a brace-depth stack.
fn collect_fns(tokens: &[Token], in_test: &[bool]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    // Stack of (brace_depth_at_open, Option<impl type>) for impl blocks.
    let mut impl_stack: Vec<(i64, String)> = Vec::new();
    let mut depth = 0i64;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.tok.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.tok.is_punct("}") {
            depth -= 1;
            while impl_stack.last().is_some_and(|(d, _)| *d > depth) {
                impl_stack.pop();
            }
            i += 1;
            continue;
        }
        if t.tok.is_ident("impl") {
            if let Some((ty, open)) = impl_self_type(tokens, i) {
                impl_stack.push((depth + 1, ty));
                depth += 1;
                i = open + 1;
                continue;
            }
        }
        if t.tok.is_ident("fn") {
            if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                if let Some((body_start, body_end)) = fn_body_range(tokens, i + 2) {
                    fns.push(FnItem {
                        name: name.clone(),
                        impl_type: impl_stack.last().map(|(_, ty)| ty.clone()),
                        body_start,
                        body_end,
                        in_test: in_test[i],
                    });
                    // Nested fns and closures belong to their parent's
                    // analysis; the body's braces are balanced, so the
                    // depth is unchanged past it.
                    i = body_end;
                    continue;
                }
            }
        }
        i += 1;
    }
    fns
}

/// For `impl … {` at `i`: the self-type name and the index of the `{`.
/// `impl Trait for Type` → `Type`; `impl Type` → `Type`; generics and
/// paths reduced to the last plain identifier before `<`/`{`.
fn impl_self_type(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    let mut after_for: Option<usize> = None;
    let mut angle = 0i64;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.tok.is_punct("<") {
            angle += 1;
        } else if t.tok.is_punct(">") {
            angle -= 1;
        } else if t.tok.is_punct("<<") {
            angle += 2;
        } else if t.tok.is_punct(">>") {
            angle -= 2;
        } else if angle == 0 {
            if t.tok.is_ident("for") {
                after_for = Some(j);
            } else if t.tok.is_punct("{") {
                // Last ident before `{` (or `where`) that sits outside
                // angle brackets — the self-type's final path segment,
                // not a generic parameter.
                let seg_start = after_for.map(|f| f + 1).unwrap_or(i + 1);
                let mut depth = 0i64;
                let mut name: Option<&str> = None;
                for t in &tokens[seg_start..j] {
                    if t.tok.is_ident("where") {
                        break;
                    }
                    match &t.tok {
                        Tok::Punct("<") => depth += 1,
                        Tok::Punct(">") => depth -= 1,
                        Tok::Punct("<<") => depth += 2,
                        Tok::Punct(">>") => depth -= 2,
                        Tok::Ident(s) if depth == 0 => name = Some(s),
                        _ => {}
                    }
                }
                return Some((name?.to_string(), j));
            } else if t.tok.is_punct(";") {
                return None; // `impl Trait for Type;` — no block
            }
        }
        j += 1;
    }
    None
}

/// From the token after the fn name, find the body `{`…`}` range
/// (handling generics, params, return types, where clauses). `None`
/// for body-less trait method declarations.
fn fn_body_range(tokens: &[Token], mut j: usize) -> Option<(usize, usize)> {
    let mut angle = 0i64;
    let mut paren = 0i64;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.tok.is_punct("<") {
            angle += 1;
        } else if t.tok.is_punct(">") {
            angle = (angle - 1).max(0);
        } else if t.tok.is_punct("->") {
            // return type; keep scanning
        } else if t.tok.is_punct("(") {
            paren += 1;
        } else if t.tok.is_punct(")") {
            paren -= 1;
        } else if t.tok.is_punct("{") && angle == 0 && paren == 0 {
            // Found the body open; match to its close.
            let mut depth = 0i64;
            for (k, u) in tokens.iter().enumerate().skip(j) {
                if u.tok.is_punct("{") {
                    depth += 1;
                } else if u.tok.is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        return Some((j, k + 1));
                    }
                }
            }
            return Some((j, tokens.len()));
        } else if t.tok.is_punct(";") && paren == 0 {
            return None; // declaration only
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("crates/x/src/lib.rs"), src)
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let f = parse(
            "fn free() { body(); }\n\
             impl Reply { fn send(self) { go(); } }\n\
             impl ToBinary for Request { fn encode(&self) { x(); } }\n",
        );
        let names: Vec<_> = f
            .fns
            .iter()
            .map(|f| (f.impl_type.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "free"),
                (Some("Reply"), "send"),
                (Some("Request"), "encode")
            ]
        );
    }

    #[test]
    fn nested_fns_are_inside_parent_body() {
        let f = parse("fn outer() { fn inner() {} call(); }\n");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "outer");
    }

    #[test]
    fn cfg_test_marks_whole_item() {
        let f = parse(
            "fn prod() { a(); }\n\
             #[cfg(test)]\nmod tests {\n fn t() { b(); }\n}\n\
             fn after() { c(); }\n",
        );
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test, "fn inside #[cfg(test)] mod");
        assert!(!f.fns[2].in_test);
    }

    #[test]
    fn line_level_allow_same_and_previous() {
        let f = parse("fn f() {\n // lint:allow(lock-order)\n bad();\n bad();\n}\n");
        assert!(f.allowed(2));
        assert!(f.allowed(3));
        assert!(!f.allowed(4));
    }

    #[test]
    fn impl_with_generics_and_where() {
        let f = parse("impl<T: Clone> Envelope<T> where T: Send { fn go(&self) { x(); } }\n");
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Envelope"));
        assert_eq!(f.fns[0].name, "go");
    }

    #[test]
    fn trait_decls_without_bodies_are_skipped() {
        let f = parse("trait H { fn on_request(&self, r: Request); fn go(&self) { x(); } }\n");
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["go"]);
    }

    #[test]
    fn fn_with_return_type_and_where_clause() {
        let f = parse("fn g<T>(x: T) -> Vec<T> where T: Ord { build(x) }\n");
        assert_eq!(f.fns[0].name, "g");
    }
}
