//! `loadgen` — the hot-path throughput campaigns.
//!
//! ```text
//! cargo run --release -p convgpu-bench --bin loadgen -- \
//!     [--sharded] [--devices=N] \
//!     [--cluster] [--nodes=N] [--codec=json|binary] \
//!     [--migration] [--kill-node-at=N] \
//!     [--transport-compare] \
//!     [--containers=N] [--workers=K] [--rounds=R] [--quick] \
//!     [--transport=inproc|socket-json|socket-binary|tcp-json|tcp-binary] \
//!     [--out=BENCH_3.json]
//! ```
//!
//! Runs the [`convgpu_bench::loadgen`] campaign for all four policies
//! (or, with `--sharded`, the multi-GPU campaign for all three
//! placement policies, writing the `BENCH_4.json` schema; or, with
//! `--cluster`, the routed multi-socket campaign for all three Swarm
//! strategies, writing the `BENCH_7.json` schema; or, with
//! `--migration`, the kill-node fault campaign — one node's server is
//! shut down `--kill-node-at` containers into the storm and the router
//! must migrate its containers to the survivor — writing the
//! `BENCH_8.json` schema with steady/recovery latency percentiles; or,
//! with `--transport-compare`, the same storm over a UNIX socket and a
//! TCP loopback socket back to back, writing the `BENCH_9.json` schema
//! whose per-leg `transport_*_decisions_per_sec` the perf-trend step gates),
//! prints a summary table and writes the machine-readable report to
//! `--out`. A campaign fails on its own correctness asserts only; its
//! headline throughput is judged against `ci/perf_baseline.json` by the
//! `perf_trend` binary, once, over all the reports together.

use convgpu_bench::loadgen::{
    render_cluster_json, render_json, render_migration_json, render_sharded_json,
    render_transport_json, run_cluster, run_loadgen, run_migration, run_sharded,
    run_transport_compare, ClusterLoadConfig, LoadgenConfig, MigrationLoadConfig, ShardedConfig,
    Transport, TransportCompareConfig,
};
use convgpu_bench::report::format_table;
use convgpu_ipc::binary::WireCodec;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen [--sharded] [--devices=N]\n\
         \x20              [--cluster] [--nodes=N] [--codec=json|binary]\n\
         \x20              [--migration] [--kill-node-at=N]\n\
         \x20              [--transport-compare]\n\
         \x20              [--containers=N] [--workers=K] [--rounds=R] [--quick]\n\
         \x20              [--transport=inproc|socket-json|socket-binary|tcp-json|tcp-binary]\n\
         \x20              [--out=FILE]"
    );
    ExitCode::from(2)
}

/// Report one transport-compare campaign (UNIX vs TCP loopback).
fn run_transport_campaign(cfg: &TransportCompareConfig, out: Option<PathBuf>) -> ExitCode {
    println!(
        "loadgen (transport): {} containers x {} workers, {} rounds, policy {}, codec {}, \
         unix vs tcp-loopback",
        cfg.base.containers,
        cfg.base.workers,
        cfg.base.rounds,
        cfg.policy.label(),
        cfg.codec.label()
    );
    let report = run_transport_compare(cfg);

    let table = format_table(
        &[
            "transport".into(),
            "decisions".into(),
            "suspensions".into(),
            "decisions/s".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
        ],
        &[("unix", &report.unix), ("tcp", &report.tcp)]
            .iter()
            .map(|(scheme, r)| {
                vec![
                    (*scheme).into(),
                    r.decisions.to_string(),
                    r.suspensions.to_string(),
                    format!("{:.0}", r.decisions_per_sec),
                    format!("{:.4}", r.quantile_ms(0.50)),
                    format!("{:.4}", r.quantile_ms(0.95)),
                    format!("{:.4}", r.quantile_ms(0.99)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    println!(
        "PERF loadgen transport_tcp_vs_unix_ratio={:.4} unix={:.0} tcp={:.0} codec={}",
        report.tcp_vs_unix_ratio(),
        report.unix_decisions_per_sec(),
        report.tcp_decisions_per_sec(),
        cfg.codec.label()
    );

    if let Some(path) = out {
        let text = render_transport_json(&report);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} bytes)", path.display(), text.len());
    }
    ExitCode::SUCCESS
}

/// Report one routed cluster campaign.
fn run_cluster_campaign(cfg: &ClusterLoadConfig, out: Option<PathBuf>) -> ExitCode {
    println!(
        "loadgen (cluster): {} containers x {} workers, {} nodes x {} device(s) x {} MiB, \
         policy {}, codec {}",
        cfg.base.containers,
        cfg.base.workers,
        cfg.nodes,
        cfg.devices_per_node,
        cfg.base.capacity.as_mib(),
        cfg.policy.label(),
        cfg.codec.label()
    );
    let report = run_cluster(cfg);

    let table = format_table(
        &[
            "strategy".into(),
            "decisions".into(),
            "suspensions".into(),
            "homes/node".into(),
            "retries".into(),
            "decisions/s".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
        ],
        &report
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.strategy.label().into(),
                    r.decisions.to_string(),
                    r.suspensions.to_string(),
                    r.containers_per_node
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join("/"),
                    r.retries.to_string(),
                    format!("{:.0}", r.decisions_per_sec),
                    format!("{:.4}", r.quantile_ms(0.50)),
                    format!("{:.4}", r.quantile_ms(0.95)),
                    format!("{:.4}", r.quantile_ms(0.99)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    println!(
        "PERF loadgen cluster_total_decisions_per_sec={:.0} nodes={} codec={}",
        report.cluster_total_decisions_per_sec(),
        cfg.nodes,
        cfg.codec.label()
    );

    if let Some(path) = out {
        let text = render_cluster_json(&report);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} bytes)", path.display(), text.len());
    }
    ExitCode::SUCCESS
}

/// Report one kill-node fault campaign.
fn run_migration_campaign(cfg: &MigrationLoadConfig, out: Option<PathBuf>) -> ExitCode {
    println!(
        "loadgen (migration): {} containers x {} workers, {} nodes x {} device(s) x {} MiB, \
         policy {}, strategy {}, kill n{} at container {}",
        cfg.base.containers,
        cfg.base.workers,
        cfg.nodes,
        cfg.devices_per_node,
        cfg.base.capacity.as_mib(),
        cfg.policy.label(),
        cfg.strategy.label(),
        cfg.kill_node,
        cfg.kill_at
    );
    let report = run_migration(cfg);

    let table = format_table(
        &[
            "phase".into(),
            "decisions".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
        ],
        &[&report.steady, &report.recovery]
            .iter()
            .zip(["steady", "recovery"])
            .map(|(h, phase)| {
                let q = |q: f64| format!("{:.4}", h.quantile_ns(q).unwrap_or(0.0) / 1e6);
                vec![
                    phase.into(),
                    h.count().to_string(),
                    q(0.50),
                    q(0.95),
                    q(0.99),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    println!(
        "migrations: {} completed, {} rejected; {} tolerated errors in the death window",
        report.migrations_completed, report.migrations_rejected, report.errors
    );
    println!(
        "PERF loadgen migration_total_decisions_per_sec={:.0} nodes={} strategy={}",
        report.decisions_per_sec,
        cfg.nodes,
        cfg.strategy.label()
    );

    if let Some(path) = out {
        let text = render_migration_json(&report);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} bytes)", path.display(), text.len());
    }
    ExitCode::SUCCESS
}

/// Report one sharded campaign.
fn run_sharded_campaign(cfg: &ShardedConfig, out: Option<PathBuf>) -> ExitCode {
    println!(
        "loadgen (sharded): {} containers x {} workers, {} devices x {} MiB, \
         policy {}, transport {}",
        cfg.base.containers,
        cfg.base.workers,
        cfg.devices,
        cfg.base.capacity.as_mib(),
        cfg.policy.label(),
        cfg.base.transport.label()
    );
    let report = run_sharded(cfg);

    let table = format_table(
        &[
            "placement".into(),
            "decisions".into(),
            "suspensions".into(),
            "homes/device".into(),
            "decisions/s".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
        ],
        &report
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.placement.label().into(),
                    r.decisions.to_string(),
                    r.suspensions.to_string(),
                    r.containers_per_device
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join("/"),
                    format!("{:.0}", r.decisions_per_sec),
                    format!("{:.4}", r.quantile_ms(0.50)),
                    format!("{:.4}", r.quantile_ms(0.95)),
                    format!("{:.4}", r.quantile_ms(0.99)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    println!(
        "PERF loadgen sharded_total_decisions_per_sec={:.0} devices={} transport={}",
        report.sharded_total_decisions_per_sec(),
        cfg.devices,
        cfg.base.transport.label()
    );

    if let Some(path) = out {
        let text = render_sharded_json(&report);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} bytes)", path.display(), text.len());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut cfg = LoadgenConfig::standard();
    let mut sharded = false;
    let mut cluster = false;
    let mut migration = false;
    let mut transport_compare = false;
    let mut kill_at: Option<u32> = None;
    let mut devices: u32 = ShardedConfig::standard().devices;
    let mut nodes: u32 = ClusterLoadConfig::standard().nodes;
    let mut codec: WireCodec = ClusterLoadConfig::standard().codec;
    // The cluster template's container count differs from the
    // single-stack default, so remember which knobs were set explicitly.
    let mut containers_flag: Option<u32> = None;
    let mut workers_flag: Option<u32> = None;
    let mut rounds_flag: Option<u32> = None;
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    for a in std::env::args().skip(1) {
        if a == "--quick" {
            quick = true;
            cfg = LoadgenConfig {
                transport: cfg.transport,
                ..LoadgenConfig::smoke()
            };
        } else if a == "--sharded" {
            sharded = true;
        } else if a == "--cluster" {
            cluster = true;
        } else if a == "--migration" {
            migration = true;
        } else if a == "--transport-compare" {
            transport_compare = true;
        } else if let Some(v) = a.strip_prefix("--kill-node-at=") {
            match v.parse() {
                Ok(n) => kill_at = Some(n),
                Err(_) => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--devices=") {
            match v.parse() {
                Ok(n) if n > 0 => devices = n,
                _ => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--nodes=") {
            match v.parse() {
                Ok(n) if n > 0 => nodes = n,
                _ => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--codec=") {
            codec = match v {
                "json" => WireCodec::Json,
                "binary" => WireCodec::Binary,
                _ => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--containers=") {
            match v.parse() {
                Ok(n) => {
                    cfg.containers = n;
                    containers_flag = Some(n);
                }
                Err(_) => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--workers=") {
            match v.parse() {
                Ok(n) => {
                    cfg.workers = n;
                    workers_flag = Some(n);
                }
                Err(_) => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--rounds=") {
            match v.parse() {
                Ok(n) => {
                    cfg.rounds = n;
                    rounds_flag = Some(n);
                }
                Err(_) => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--transport=") {
            cfg.transport = match v {
                "inproc" => Transport::InProc,
                "socket-json" => Transport::Socket(WireCodec::Json),
                "socket-binary" => Transport::Socket(WireCodec::Binary),
                "tcp-json" => Transport::Tcp(WireCodec::Json),
                "tcp-binary" => Transport::Tcp(WireCodec::Binary),
                _ => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--out=") {
            out = Some(PathBuf::from(v));
        } else {
            return usage();
        }
    }

    if migration {
        if sharded || cluster {
            // One campaign per invocation.
            return usage();
        }
        let template = if quick {
            MigrationLoadConfig::smoke()
        } else {
            MigrationLoadConfig::standard()
        };
        let containers = containers_flag.unwrap_or(template.base.containers);
        let kill_at = kill_at.unwrap_or_else(|| {
            // Default kill point scales with the storm: a third in.
            if containers_flag.is_some() {
                containers / 3
            } else {
                template.kill_at
            }
        });
        let mcfg = MigrationLoadConfig {
            base: LoadgenConfig {
                containers,
                workers: workers_flag.unwrap_or(template.base.workers),
                rounds: rounds_flag.unwrap_or(template.base.rounds),
                ..template.base
            },
            nodes,
            codec,
            kill_at,
            ..template
        };
        return run_migration_campaign(&mcfg, out);
    }
    if kill_at.is_some() {
        // --kill-node-at only makes sense for the migration campaign.
        return usage();
    }

    if transport_compare {
        if sharded || cluster {
            // One campaign per invocation.
            return usage();
        }
        let template = if quick {
            TransportCompareConfig::smoke()
        } else {
            TransportCompareConfig::standard()
        };
        let tcfg = TransportCompareConfig {
            base: LoadgenConfig {
                containers: containers_flag.unwrap_or(template.base.containers),
                workers: workers_flag.unwrap_or(template.base.workers),
                rounds: rounds_flag.unwrap_or(template.base.rounds),
                ..template.base
            },
            codec,
            ..template
        };
        return run_transport_campaign(&tcfg, out);
    }

    if cluster {
        if sharded {
            // One campaign per invocation.
            return usage();
        }
        let template = if quick {
            ClusterLoadConfig::smoke()
        } else {
            ClusterLoadConfig::standard()
        };
        let ccfg = ClusterLoadConfig {
            base: LoadgenConfig {
                containers: containers_flag.unwrap_or(template.base.containers),
                workers: workers_flag.unwrap_or(template.base.workers),
                rounds: rounds_flag.unwrap_or(template.base.rounds),
                ..template.base
            },
            nodes,
            codec,
            ..template
        };
        return run_cluster_campaign(&ccfg, out);
    }

    if sharded {
        let template = if quick {
            ShardedConfig::smoke()
        } else {
            ShardedConfig::standard()
        };
        let scfg = ShardedConfig {
            base: LoadgenConfig {
                containers: cfg.containers,
                workers: cfg.workers,
                rounds: cfg.rounds,
                transport: cfg.transport,
                ..template.base
            },
            devices,
            ..template
        };
        return run_sharded_campaign(&scfg, out);
    }

    println!(
        "loadgen: {} containers x {} workers, {} rounds, transport {}",
        cfg.containers,
        cfg.workers,
        cfg.rounds,
        cfg.transport.label()
    );
    let report = run_loadgen(&cfg);

    let table = format_table(
        &[
            "policy".into(),
            "decisions".into(),
            "granted".into(),
            "rejected".into(),
            "suspensions".into(),
            "decisions/s".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
        ],
        &report
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.policy.label().into(),
                    r.decisions.to_string(),
                    r.granted.to_string(),
                    r.rejected.to_string(),
                    r.suspensions.to_string(),
                    format!("{:.0}", r.decisions_per_sec),
                    format!("{:.4}", r.quantile_ms(0.50)),
                    format!("{:.4}", r.quantile_ms(0.95)),
                    format!("{:.4}", r.quantile_ms(0.99)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    // The one-line summary CI greps into the job log.
    println!(
        "PERF loadgen total_decisions_per_sec={:.0} transport={}",
        report.total_decisions_per_sec(),
        cfg.transport.label()
    );

    if let Some(path) = out {
        let text = render_json(&report);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} bytes)", path.display(), text.len());
    }
    ExitCode::SUCCESS
}
