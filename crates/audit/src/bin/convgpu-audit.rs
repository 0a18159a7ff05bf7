//! Exhaustive audit runner.
//!
//! One explorer over a phase table ([`convgpu_audit::suite::phases`]):
//! the bounded model checker sweeps every policy on the standard
//! quantized single-device universes and every policy × placement
//! policy on the multi-GPU universe — positive proof: no invariant
//! violation, no §III-E stall, no lost wakeup on any interleaving — then
//! prints the naive baseline's minimal deadlock trace (negative
//! witness). A node daemon admits a container only by `register` (a
//! router's placement included), so these universes cover every way in.
//!
//! ```text
//! convgpu-audit [--policy fifo|bf|ru|rand|all] [--mode dfs|bfs]
//!               [--max-states N] [--seed N] [--quick]
//! ```
//!
//! Exits non-zero on any failure — `ci/check.sh` runs it as a gate.

use convgpu_audit::model::{explore, CheckOutcome, ModelConfig, SearchMode};
use convgpu_audit::naive::{find_deadlock, NaiveConfig};
use convgpu_audit::suite::phases;
use convgpu_scheduler::PolicyKind;
use std::process::ExitCode;

struct Options {
    policies: Vec<PolicyKind>,
    mode: SearchMode,
    max_states: Option<usize>,
    seed: Option<u64>,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: convgpu-audit [--policy fifo|bf|ru|rand|all] [--mode dfs|bfs]\n\
         \x20                    [--max-states N] [--seed N] [--quick]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        policies: PolicyKind::ALL.to_vec(),
        mode: SearchMode::Dfs,
        max_states: None,
        seed: None,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--policy" => {
                opts.policies = match value("--policy").as_str() {
                    "fifo" => vec![PolicyKind::Fifo],
                    "bf" | "bestfit" => vec![PolicyKind::BestFit],
                    "ru" | "recentuse" => vec![PolicyKind::RecentUse],
                    "rand" | "random" => vec![PolicyKind::Random],
                    "all" => PolicyKind::ALL.to_vec(),
                    other => {
                        eprintln!("unknown policy '{other}'");
                        usage()
                    }
                };
            }
            "--mode" => {
                opts.mode = match value("--mode").as_str() {
                    "dfs" => SearchMode::Dfs,
                    "bfs" => SearchMode::Bfs,
                    other => {
                        eprintln!("unknown mode '{other}'");
                        usage()
                    }
                };
            }
            "--max-states" => {
                opts.max_states = Some(value("--max-states").parse().unwrap_or_else(|_| usage()));
            }
            "--seed" => {
                opts.seed = Some(value("--seed").parse().unwrap_or_else(|_| usage()));
            }
            "--quick" => opts.quick = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }
    opts
}

fn customize(mut cfg: ModelConfig, opts: &Options) -> ModelConfig {
    cfg.mode = opts.mode;
    if let Some(m) = opts.max_states {
        cfg.max_states = m;
    }
    if let Some(s) = opts.seed {
        cfg.seed = s;
    }
    if opts.quick {
        cfg = cfg.quick();
    }
    cfg
}

/// Run one universe; returns whether it passed.
fn run_one(label: &str, cfg: &ModelConfig) -> bool {
    let started = std::time::Instant::now();
    let outcome = explore(cfg);
    let elapsed = started.elapsed();
    match outcome {
        CheckOutcome::Pass(stats) => {
            println!("  PASS {label:<24} {stats}  ({elapsed:.2?})");
            true
        }
        CheckOutcome::Fail {
            failure,
            trace,
            stats,
        } => {
            println!("  FAIL {label}: {failure}");
            println!(
                "       after {} states, {} transitions",
                stats.states, stats.transitions
            );
            println!("       counterexample ({} events):", trace.len());
            for (i, ev) in trace.iter().enumerate() {
                println!("         {:>2}. {ev}", i + 1);
            }
            false
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut ok = true;

    println!(
        "convgpu-audit: bounded model check, mode {:?} — full-guarantee discipline",
        opts.mode
    );
    let phases = phases(&opts.policies);
    let total = phases.len() + 1;
    for (i, phase) in phases.into_iter().enumerate() {
        println!("[{}/{total}] {}", i + 1, phase.title);
        for (label, cfg) in phase.rows {
            ok &= run_one(&label, &customize(cfg, &opts));
        }
    }

    println!("[{total}/{total}] naive baseline (grant-if-fits, no guarantees) — negative witness");
    match find_deadlock(&NaiveConfig::classic()) {
        Some(w) => {
            println!(
                "  minimal deadlock in {} steps (BFS over {} states):",
                w.trace.len(),
                w.states
            );
            println!("{w}");
            println!(
                "  (the model checker above proves the real scheduler reaches no such \
                 state on any interleaving)"
            );
        }
        None => {
            println!("  FAIL: naive baseline did not deadlock — witness lost");
            ok = false;
        }
    }

    if ok {
        println!("convgpu-audit: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("convgpu-audit: FAILURES above");
        ExitCode::FAILURE
    }
}
