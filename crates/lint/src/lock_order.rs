//! lock-order: the deadlock gate for the middleware stack.
//!
//! Builds a per-function lock-acquisition model across the scheduler,
//! IPC, core, and wrapper crates by tracking guard lifetimes through
//! each body: `let g = x.lock()` binds to its enclosing block,
//! temporaries die at the end of their statement (or, for `for`/`match`
//! heads, with the block they govern), and `drop(g)` releases early.
//! From the model it reports:
//!
//! * **IPC writes under a guard** — a socket/`Reply` write (`.send` on
//!   a reply, `send_batch`, `write_json`/`write_binary`, `write_all`)
//!   reached while any `convgpu_sim_core::sync` guard is held, directly
//!   or through a resolvable call. This freezes the "dispatch batches
//!   replies outside the waiter lock" fix: a blocked peer must never
//!   be able to wedge a scheduler lock. A `write_all` whose receiver
//!   *is* the held guard (the stream's own mutex in `Reply::send`) is
//!   the one sanctioned shape and is exempt.
//! * **Lock cycles** — lock A acquired while holding B in one place
//!   and B while holding A in another (including through calls), the
//!   classic AB/BA deadlock.
//!
//! Lock identity is `<file-stem>:<receiver>` (`service:state`). Method
//! calls resolve through the workspace call graph only when the name
//! is unambiguous and not a common std method, so `tx.send(…)` on an
//! mpsc channel never counts as a `Reply::send`.

use crate::items::{FnItem, SourceFile};
use crate::lexer::{Tok, Token};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Crates whose locking behavior is modeled.
pub(crate) const SCOPE: [&str; 4] = ["scheduler", "ipc", "core", "wrapper"];

/// Guard-producing methods on the sync wrappers.
const LOCK_METHODS: [&str; 4] = ["lock", "read", "write", "try_lock"];

/// Method names too generic to resolve through the call graph.
const AMBIGUOUS_METHODS: [&str; 24] = [
    "send",
    "write",
    "read",
    "insert",
    "remove",
    "push",
    "get",
    "len",
    "drain",
    "lock",
    "clone",
    "new",
    "iter",
    "next",
    "join",
    "flush",
    "shutdown",
    "recv",
    "write_all",
    "try_lock",
    "expect",
    "unwrap",
    "take",
    "map",
];

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
enum CallKind {
    /// `helper(…)` — free function.
    Bare(String),
    /// `x.method(…)`.
    Method(String),
    /// `Type::assoc(…)`.
    Path(String, String),
}

/// A call made while possibly holding locks.
#[derive(Clone, Debug)]
struct Call {
    kind: CallKind,
    line: usize,
    held: Vec<String>,
}

/// Everything the global phase needs about one function.
struct FnFacts {
    file: PathBuf,
    name: String,
    impl_type: Option<String>,
    /// Locks acquired directly in this body.
    acquired: BTreeSet<String>,
    /// (held, acquired, line) — nested acquisitions.
    edges: Vec<(String, String, usize)>,
    /// Direct socket/Reply writes: (line, what, held-at-that-point).
    sinks: Vec<(usize, String, Vec<String>)>,
    /// Body contains any IPC write token at all (even the exempt
    /// guard-receiver shape) — used for interprocedural propagation.
    writes_ipc: bool,
    calls: Vec<Call>,
}

/// A live guard during the body walk.
struct Guard {
    /// Binding name, for `drop(g)` and the write_all exemption.
    name: Option<String>,
    /// Lock node id (`stem:receiver`).
    lock: String,
    /// Dies when brace depth drops below this.
    scope_depth: i64,
    /// Also dies at the next `;` at `scope_depth` (statement temp).
    stmt: bool,
}

/// Run the analysis over `files`, the [`SCOPE`] crates' sources.
pub(crate) fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut facts = Vec::new();
    let mut out = Vec::new();
    for f in files {
        for func in &f.fns {
            if func.in_test {
                continue;
            }
            let fact = analyze_body(&f.rel, &f.stem(), func, f.body(func));
            for (line, what, held) in &fact.sinks {
                if !held.is_empty() {
                    out.push(finding(
                        &f.rel,
                        *line,
                        format!(
                            "{what} while holding {}; replies and socket writes \
                             must happen after every scheduler guard is released",
                            held.join(" and ")
                        ),
                    ));
                }
            }
            facts.push(fact);
        }
    }
    propagate(&facts, &mut out);
    out
}

/// Walk one body, tracking guard lifetimes.
fn analyze_body(rel: &Path, stem: &str, func: &FnItem, body: &[Token]) -> FnFacts {
    let mut fact = FnFacts {
        file: rel.to_path_buf(),
        name: func.name.clone(),
        impl_type: func.impl_type.clone(),
        acquired: BTreeSet::new(),
        edges: Vec::new(),
        sinks: Vec::new(),
        writes_ipc: false,
        calls: Vec::new(),
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i64;
    // `for`/`match`/`if`/`while` between keyword and `{`.
    let mut header: Option<&'static str> = None;
    // `let [mut] name =` / `if let Some(name) =`: (name, `=`-seen, rhs
    // starts with `*` deref so the binding copies, not holds).
    let mut pending_let: Option<(Option<String>, bool, bool)> = None;

    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        match &t.tok {
            Tok::Punct("{") => {
                depth += 1;
                if let Some(kw) = header.take() {
                    if kw == "if" || kw == "while" {
                        // Condition temporaries die before the block.
                        guards.retain(|g| !(g.stmt && g.scope_depth == depth - 1));
                    }
                }
                pending_let = None;
            }
            Tok::Punct("}") => {
                depth -= 1;
                guards.retain(|g| g.scope_depth <= depth);
            }
            Tok::Punct(";") => {
                guards.retain(|g| !(g.stmt && g.scope_depth == depth));
                pending_let = None;
                header = None;
            }
            Tok::Punct("=") => {
                if let Some((_, eq_seen @ false, deref)) = pending_let.as_mut() {
                    *eq_seen = true;
                    *deref = body.get(i + 1).is_some_and(|n| n.tok.is_punct("*"));
                }
            }
            Tok::Ident(w) if matches!(w.as_str(), "for" | "while" | "match" | "if") => {
                header = Some(match w.as_str() {
                    "for" => "for",
                    "while" => "while",
                    "match" => "match",
                    _ => "if",
                });
            }
            Tok::Ident(w) if w == "let" => {
                let mut j = i + 1;
                if ident(body, j) == Some("mut") {
                    j += 1;
                }
                // `Some(name)` / `Ok(name)` single-binding patterns.
                if ident_in(body, j, &["Some", "Ok"]) && is_punct(body, j + 1, "(") {
                    j += 2;
                    if ident(body, j) == Some("mut") {
                        j += 1;
                    }
                }
                pending_let = Some((ident(body, j).map(str::to_string), false, false));
            }
            Tok::Ident(w) if w == "drop" && is_punct(body, i + 1, "(") => {
                if let Some(g) = ident(body, i + 2) {
                    guards.retain(|h| h.name.as_deref() != Some(g));
                }
            }
            Tok::Punct(".")
                if ident_in(body, i + 1, &LOCK_METHODS)
                    && is_punct(body, i + 2, "(")
                    && is_punct(body, i + 3, ")") =>
            {
                let receiver = (i > 0).then(|| ident(body, i - 1)).flatten().unwrap_or("?");
                let lock = format!("{stem}:{receiver}");
                // A self-edge (same lock re-acquired) is a self-deadlock
                // and is kept; distinct pairs feed cycle detection.
                for held in &guards {
                    fact.edges.push((held.lock.clone(), lock.clone(), t.line));
                }
                fact.acquired.insert(lock.clone());
                // Binding shape decides the guard's lifetime.
                let after = i + 4; // token after `)`
                let named_let = match &pending_let {
                    Some((name, true, false)) => {
                        let ends_stmt = is_punct(body, after, ";");
                        let ends_header = is_punct(body, after, "{") && header.is_some();
                        (ends_stmt || ends_header).then(|| name.clone())
                    }
                    _ => None,
                };
                let guard = match (named_let, header) {
                    (Some(name), Some(_)) => Guard {
                        name,
                        lock,
                        scope_depth: depth + 1,
                        stmt: false,
                    },
                    (Some(name), None) => Guard {
                        name,
                        lock,
                        scope_depth: depth,
                        stmt: false,
                    },
                    (None, Some("for" | "match")) => Guard {
                        name: None,
                        lock,
                        scope_depth: depth + 1,
                        stmt: false,
                    },
                    (None, _) => Guard {
                        name: None,
                        lock,
                        scope_depth: depth,
                        stmt: true,
                    },
                };
                guards.push(guard);
                i += 4;
                continue;
            }
            Tok::Ident(name) if is_punct(body, i + 1, "(") => {
                record_call_or_sink(&mut fact, body, i, name, &guards);
            }
            _ => {}
        }
        i += 1;
    }
    fact
}

/// Classify `name(` at `i`: an IPC sink, a call worth resolving, or
/// noise.
fn record_call_or_sink(fact: &mut FnFacts, body: &[Token], i: usize, name: &str, guards: &[Guard]) {
    let line = body[i].line;
    let held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
    let after_dot = i > 0 && body[i - 1].tok.is_punct(".");
    let receiver = (after_dot && i > 1)
        .then(|| ident(body, i - 2))
        .flatten()
        .unwrap_or("");

    // Direct sinks.
    let sink = match name {
        "send_batch" => Some("Reply::send_batch".to_string()),
        "write_json" | "write_binary" => Some(format!("codec {name}")),
        "send" if receiver.contains("reply") => Some(format!("{receiver}.send")),
        "write_all" => Some(format!("socket write ({receiver}.write_all)")),
        _ => None,
    };
    if let Some(what) = sink {
        fact.writes_ipc = true;
        // A write through the stream's own held guard is the sanctioned
        // shape (`Reply::send`); every *other* held lock still counts.
        let held: Vec<String> = guards
            .iter()
            .filter(|g| !(name == "write_all" && g.name.as_deref() == Some(receiver)))
            .map(|g| g.lock.clone())
            .collect();
        fact.sinks.push((line, what, held));
        return;
    }

    // Calls, for interprocedural propagation.
    let kind = if after_dot {
        if AMBIGUOUS_METHODS.contains(&name) || LOCK_METHODS.contains(&name) {
            return;
        }
        CallKind::Method(name.to_string())
    } else if i > 0 && body[i - 1].tok.is_punct("::") {
        let Some(ty) = (i > 1).then(|| ident(body, i - 2)).flatten() else {
            return;
        };
        CallKind::Path(ty.to_string(), name.to_string())
    } else {
        if matches!(
            name,
            "Some" | "Ok" | "Err" | "None" | "Box" | "Vec" | "drop" | "matches"
        ) {
            return;
        }
        CallKind::Bare(name.to_string())
    };
    fact.calls.push(Call { kind, line, held });
}

/// Interprocedural phase: resolve calls, close over acquired locks and
/// IPC-write reachability, then report guard-held calls and cycles.
fn propagate(facts: &[FnFacts], out: &mut Vec<Finding>) {
    // Resolution index: a call resolves only to a *unique* candidate.
    fn unique(mut it: impl Iterator<Item = usize>) -> Option<usize> {
        let first = it.next()?;
        it.next().is_none().then_some(first)
    }
    let with_name = |name: &str| -> Vec<usize> {
        facts
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name)
            .map(|(i, _)| i)
            .collect()
    };
    let resolve = |kind: &CallKind| -> Option<usize> {
        match kind {
            CallKind::Path(ty, name) => unique(
                with_name(name)
                    .into_iter()
                    .filter(|&i| facts[i].impl_type.as_deref() == Some(ty.as_str())),
            ),
            CallKind::Bare(name) => unique(
                with_name(name)
                    .into_iter()
                    .filter(|&i| facts[i].impl_type.is_none()),
            )
            .or_else(|| unique(with_name(name).into_iter())),
            CallKind::Method(name) => unique(with_name(name).into_iter()),
        }
    };
    let callees: Vec<Vec<(usize, &Call)>> = facts
        .iter()
        .map(|f| {
            f.calls
                .iter()
                .filter_map(|c| resolve(&c.kind).map(|idx| (idx, c)))
                .collect()
        })
        .collect();

    // Fixpoint: transitive locks + IPC-write reachability.
    let mut locks: Vec<BTreeSet<String>> = facts.iter().map(|f| f.acquired.clone()).collect();
    let mut writes: Vec<bool> = facts.iter().map(|f| f.writes_ipc).collect();
    loop {
        let mut changed = false;
        for (i, cs) in callees.iter().enumerate() {
            for (j, _) in cs {
                if writes[*j] && !writes[i] {
                    writes[i] = true;
                    changed = true;
                }
                let extra: Vec<String> = locks[*j].difference(&locks[i]).cloned().collect();
                if !extra.is_empty() {
                    locks[i].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Guard-held calls into IPC-writing or lock-taking functions.
    let mut edges: BTreeMap<(String, String), (PathBuf, usize)> = BTreeMap::new();
    for f in facts {
        for (a, b, line) in &f.edges {
            edges
                .entry((a.clone(), b.clone()))
                .or_insert((f.file.clone(), *line));
        }
    }
    for (i, cs) in callees.iter().enumerate() {
        for (j, call) in cs {
            if call.held.is_empty() {
                continue;
            }
            if writes[*j] {
                out.push(finding(
                    &facts[i].file,
                    call.line,
                    format!(
                        "call to `{}` (which reaches an IPC write) while holding {}",
                        qualified(&facts[*j]),
                        call.held.join(" and ")
                    ),
                ));
            }
            for l in &locks[*j] {
                for h in &call.held {
                    if h != l {
                        edges
                            .entry((h.clone(), l.clone()))
                            .or_insert((facts[i].file.clone(), call.line));
                    }
                }
            }
        }
    }

    report_cycles(&edges, out);
}

fn qualified(f: &FnFacts) -> String {
    match &f.impl_type {
        Some(t) => format!("{t}::{}", f.name),
        None => f.name.clone(),
    }
}

/// AB/BA (and longer, and self-) cycles over the merged edge set.
fn report_cycles(edges: &BTreeMap<(String, String), (PathBuf, usize)>, out: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n.to_string()) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((a, b), (file, line)) in edges {
        let cycle = if a == b {
            vec![a.clone()]
        } else if reaches(b, a) {
            let mut pair = vec![a.clone(), b.clone()];
            pair.sort();
            pair
        } else {
            continue;
        };
        if reported.insert(cycle.clone()) {
            let msg = if cycle.len() == 1 {
                format!("lock {a} re-acquired while already held (self-deadlock)")
            } else {
                format!(
                    "lock-order cycle between {} ({} taken while holding {})",
                    cycle.join(" and "),
                    b,
                    a
                )
            };
            out.push(finding(file, *line, msg));
        }
    }
}

/// Identifier text at token index `i`.
fn ident(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| t.tok.ident())
}

/// Is token `i` the punct `p`?
fn is_punct(toks: &[Token], i: usize, p: &str) -> bool {
    toks.get(i).is_some_and(|t| t.tok.is_punct(p))
}

/// Does the ident at `i` match any of `names`?
fn ident_in(toks: &[Token], i: usize, names: &[&str]) -> bool {
    ident(toks, i).is_some_and(|s| names.contains(&s))
}

fn finding(file: &Path, line: usize, message: String) -> Finding {
    Finding {
        file: file.to_string_lossy().replace('\\', "/"),
        line,
        message,
    }
}
