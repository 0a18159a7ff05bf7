//! The six analyses. Each module exposes `check(&Workspace) -> Vec<Finding>`;
//! suppression filtering happens centrally in [`crate::run_on`].

pub mod forbid_unsafe;
pub mod hashmap_iter;
pub mod lock_order;
pub mod lock_unwrap;
pub mod raw_transport;
pub mod wall_clock;

use crate::lexer::Token;

/// Crates on the simulated-time path: wall-clock reads here break
/// determinism (see docs/DETERMINISM.md).
pub(crate) const SIM_PATH_CRATES: [&str; 5] = [
    "sim-core",
    "gpu-sim",
    "scheduler",
    "container-rt",
    "wrapper",
];

/// Identifier text at token index `i`.
pub(crate) fn ident(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| t.tok.ident())
}

/// Is token `i` the punct `p`?
pub(crate) fn is_punct(toks: &[Token], i: usize, p: &str) -> bool {
    toks.get(i).is_some_and(|t| t.tok.is_punct(p))
}

/// Does the ident at `i` match any of `names`?
pub(crate) fn ident_in(toks: &[Token], i: usize, names: &[&str]) -> bool {
    ident(toks, i).is_some_and(|s| names.contains(&s))
}
