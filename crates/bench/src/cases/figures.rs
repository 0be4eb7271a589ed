//! The paper's evaluation, §4: Figures 5–11 and the scheduler
//! ablation. Each case prints the series the paper plots; `--scale`
//! multiplies the default input count (`--secs` sets Figure 8's paced
//! window).

use std::time::{Duration, Instant};

use sstore_baselines::microbatch::DStreamEngine;
use sstore_common::{tuple, Tuple};
use sstore_engine::config::SchedulerMode;
use sstore_engine::recovery::recover;
use sstore_engine::{App, BoundaryMode, EngineConfig, LoggingConfig, RecoveryMode};
use sstore_workloads::gen::{TrafficGen, VoteGen};
use sstore_workloads::voter_baselines::{run_microbatch, run_topology};
use sstore_workloads::{linearroad, micro, voter};

use super::{accepted_votes, CONTESTANTS};
use crate::{drive, per_sec, start, DataDir, Driven, Figure, Params, Report};

/// `n` one-tuple batches `(0), (1), …`.
fn ints(n: usize) -> Vec<Vec<Tuple>> {
    (0..n as i64).map(|v| vec![tuple![v]]).collect()
}

/// Starts `app` under `config` on a fresh directory, streams `batches`
/// in (timed), flushes and shuts down.
fn stream_through(
    dir: &DataDir,
    config: EngineConfig,
    app: App,
    stream: &str,
    batches: &[Vec<Tuple>],
) -> Driven {
    let engine = start(config.with_data_dir(dir.fresh(stream)), app);
    let run = drive(&engine, stream, batches, None, false);
    engine.flush_logs().expect("flush");
    engine.shutdown();
    run
}

fn inline() -> EngineConfig {
    EngineConfig::sstore().with_boundary(BoundaryMode::Inline)
}

fn xs(sizes: &[usize]) -> Vec<f64> {
    sizes.iter().map(|&n| n as f64).collect()
}

/// A report of `figures` and nothing else.
fn report(case: &str, params: &[(&str, f64)], figures: Vec<Figure>) -> Report {
    Report { figures, ..Report::new(case, params) }
}

/// Figure 5: EE triggers — S-Store's in-EE trigger chain vs H-Store's
/// per-stage PE→EE round trips, sweeping the number of chain stages.
pub fn fig5(p: &Params, dir: &DataDir) -> Report {
    let txns = p.scaled(5000);
    let batches = ints(txns);
    let labels = ["Figure 5: EE trigger micro-benchmark", "EE triggers", "transactions/sec"];
    let fig = Figure::sweep(labels, ["S-Store", "H-Store"], &xs(&[0, 1, 2, 4, 6, 8, 10]), |n| {
        [micro::ee_chain_sstore(n as usize), micro::ee_chain_hstore(n as usize)].map(|app| {
            let run = stream_through(dir, EngineConfig::sstore(), app, "chain_in", &batches);
            per_sec(txns as u64, run.elapsed)
        })
    });
    report("fig5", &[("txns", txns as f64)], vec![fig])
}

/// Figure 6: PE triggers — S-Store's in-engine workflow activation vs
/// H-Store's client-driven step-by-step submission, sweeping workflow
/// length (log-scale gap in the paper).
pub fn fig6(p: &Params, dir: &DataDir) -> Report {
    let wfs = p.scaled(2000);
    let batches = ints(wfs);
    let labels = [
        "Figure 6: PE trigger micro-benchmark",
        "workflow size",
        "workflows/sec (log-scale in paper)",
    ];
    let fig = Figure::sweep(labels, ["S-Store", "H-Store"], &xs(&[1, 2, 4, 8, 16]), |n| {
        let app = || micro::pe_chain(n as usize);
        let sstore = stream_through(dir, inline(), app(), "wf_in", &batches);
        // H-Store: the client must wait for each step before submitting
        // the next (no asynchronous submission, §4.2). Fewer workflows
        // keep the run short — throughput is rate, not volume.
        let config = EngineConfig::hstore().with_boundary(BoundaryMode::Inline);
        let engine = start(config.with_data_dir(dir.fresh("fig6h")), app());
        let hstore = drive(&engine, "wf_in", &batches[..(wfs / 4).max(1)], None, true);
        engine.shutdown();
        [sstore, hstore].map(|run| per_sec(run.workflows, run.elapsed))
    });
    report("fig6", &[("workflows", wfs as f64)], vec![fig])
}

/// Figure 7: native EE windowing vs H-Store-style manual window
/// maintenance (metadata table + staged flags), sweeping window size.
pub fn fig7(p: &Params, dir: &DataDir) -> Report {
    let tuples = p.scaled(5000);
    let batches = ints(tuples);
    let labels =
        ["Figure 7: window micro-benchmark (slide = size/5)", "window size", "transactions/sec"];
    let series = ["S-Store native", "H-Store manual"];
    let fig = Figure::sweep(labels, series, &xs(&[10, 50, 100, 500, 1000]), |size| {
        let (size, slide) = (size as usize, (size as usize / 5).max(1));
        let native = micro::window_native(size, slide);
        let native = stream_through(dir, EngineConfig::sstore(), native, "win_in", &batches);

        let config = EngineConfig::sstore().with_data_dir(dir.fresh("fig7m"));
        let engine = start(config, micro::window_manual(size, slide));
        engine.call("seed", vec![]).expect("seed");
        let manual = drive(&engine, "win_in", &batches, None, false);
        engine.shutdown();
        [native, manual].map(|run| per_sec(tuples as u64, run.elapsed))
    });
    report("fig7", &[("tuples", tuples as f64)], vec![fig])
}

/// Figure 8: leaderboard maintenance — S-Store vs H-Store workflow
/// throughput as the offered vote rate grows. H-Store saturates once
/// the per-step client round trips exceed the arrival interval;
/// S-Store keeps absorbing votes through PE triggers.
pub fn fig8(p: &Params, dir: &DataDir) -> Report {
    let window = Duration::from_secs_f64(p.secs_or(1.5));
    let mut accepted_frac = f64::INFINITY;
    let labels = [
        "Figure 8: leaderboard maintenance (input rate sweep)",
        "votes/sec offered",
        "workflows/sec achieved",
    ];
    let rates = [500.0, 2000.0, 8000.0, 16000.0, 32000.0, 64000.0, 128000.0];
    let fig = Figure::sweep(labels, ["S-Store", "H-Store"], &rates, |rate| {
        let n = (rate * window.as_secs_f64() * 1.2) as usize + 10;
        let votes = VoteGen::new(8, CONTESTANTS, 20).votes(n);
        let batches: Vec<_> = votes.iter().map(|v| vec![v.tuple()]).collect();
        [(EngineConfig::sstore(), false), (EngineConfig::hstore(), true)].map(
            |(config, client_driven)| {
                let config =
                    config.with_boundary(BoundaryMode::Inline).with_data_dir(dir.fresh("fig8"));
                let engine = start(config, voter::leaderboard_app(true));
                voter::seed(&engine, CONTESTANTS).expect("seed");
                let run = drive(&engine, "votes_in", &batches, Some((rate, window)), client_driven);
                accepted_frac = accepted_frac.min(accepted_votes(&engine) / run.offered as f64);
                engine.shutdown();
                per_sec(run.workflows, run.elapsed)
            },
        )
    });
    let mut report = report("fig8", &[("secs", window.as_secs_f64())], vec![fig]);
    report.row("accepted_frac", accepted_frac, "of votes offered, worst run");
    report
}

/// Figure 9a: logging overhead — strong recovery (log every TE) vs weak
/// recovery (log border TEs only), without group commit, sweeping
/// workflow length; plus the group-commit ablation the paper discusses.
pub fn fig9a(p: &Params, dir: &DataDir) -> Report {
    let wfs = p.scaled(2000);
    let batches = ints(wfs);
    let sweep = |title: &str, labels: [&str; 2], group_commit: usize| {
        Figure::sweep(
            [title, "workflow size", "workflows/sec"],
            labels,
            &xs(&[1, 2, 4, 8, 16]),
            |n| {
                [RecoveryMode::Weak, RecoveryMode::Strong].map(|mode| {
                    // fsync on: the no-group-commit comparison is about each
                    // commit paying a real durability boundary (§4.4) —
                    // without it the log write disappears into the page
                    // cache and both modes look alike.
                    let logging = LoggingConfig {
                        enabled: true,
                        group_commit,
                        fsync: true,
                        ..Default::default()
                    };
                    let config = inline().with_recovery(mode).with_logging(logging);
                    let run =
                        stream_through(dir, config, micro::pe_chain(n as usize), "wf_in", &batches);
                    per_sec(run.workflows, run.elapsed)
                })
            },
        )
    };
    // The second table is the ablation: group commit narrows the gap
    // (the paper's motivation for comparing the no-group-commit case).
    let figures = vec![
        sweep(
            "Figure 9a: logging overhead, no group commit",
            ["weak (border only)", "strong (all TEs)"],
            1,
        ),
        sweep(
            "Figure 9a ablation: with group commit (64)",
            ["weak, group=64", "strong, group=64"],
            64,
        ),
    ];
    report("fig9a", &[("workflows", wfs as f64)], figures)
}

/// Figure 9b: recovery time — strong recovery replays every logged TE
/// through a per-record client round trip (time grows with workflow
/// length); weak recovery re-derives interior TEs via PE triggers
/// inside the engine (time stays ~flat).
pub fn fig9b(p: &Params, dir: &DataDir) -> Report {
    let wfs = p.scaled(500);
    let batches = ints(wfs);
    let title = format!("Figure 9b: recovery time for {wfs} workflows");
    let labels = [title.as_str(), "workflow size", "recovery time (ms)"];
    let fig =
        Figure::sweep(labels, ["weak recovery", "strong recovery"], &xs(&[1, 2, 4, 8, 16]), |n| {
            [RecoveryMode::Weak, RecoveryMode::Strong].map(|mode| {
                let app = || micro::pe_chain(n as usize);
                let logging = LoggingConfig {
                    enabled: true,
                    group_commit: 1,
                    fsync: false,
                    ..Default::default()
                };
                let config = inline()
                    .with_recovery(mode)
                    .with_logging(logging)
                    .with_data_dir(dir.fresh("fig9b"));
                let engine = start(config.clone(), app());
                drive(&engine, "wf_in", &batches, None, false);
                engine.flush_logs().expect("flush");
                engine.shutdown(); // "crash" after a clean log

                let t = Instant::now();
                let (engine, replayed) = recover(config, app()).expect("recover");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                assert!(replayed.records_replayed > 0);
                engine.shutdown();
                ms
            })
        });
    report("fig9b", &[("workflows", wfs as f64)], vec![fig])
}

/// Figure 10: the leaderboard workload on modern SDMS models — S-Store
/// (full ACID, logging on) vs a Storm/Trident-like topology vs a
/// Spark-Streaming-like micro-batch engine, with and without vote
/// validation (the indexed-lookup vs full-scan contrast of §4.6.3). A
/// bar chart in the paper, so rows rather than series here.
pub fn fig10(p: &Params, dir: &DataDir) -> Report {
    let n = p.scaled(60_000);
    let votes = VoteGen::new(21, CONTESTANTS, 20).votes(n);
    let batches: Vec<_> = votes.iter().map(|v| vec![v.tuple()]).collect();
    let batch = 50;
    let heading = Figure {
        title: "Figure 10: voter w/ leaderboard on modern SDMSs".into(),
        x_label: String::new(),
        y_label: format!("{n} votes; S-Store: 1 vote/txn + logging; baselines: batch {batch}"),
        series: vec![],
    };
    let mut report = report("fig10", &[("votes", n as f64)], vec![heading]);
    let mut accepted_frac = f64::INFINITY;
    for (validate, tag) in [(true, "with validation"), (false, "no validation")] {
        // S-Store: transactional, one vote per batch, logging on (§4.6.3).
        let logging =
            LoggingConfig { enabled: true, group_commit: 64, fsync: false, ..Default::default() };
        let config = inline().with_data_dir(dir.fresh("fig10")).with_logging(logging);
        let engine = start(config, voter::leaderboard_app(validate));
        voter::seed(&engine, CONTESTANTS).expect("seed");
        let run = drive(&engine, "votes_in", &batches, None, false);
        report.row(format!("S-Store ({tag})"), per_sec(n as u64, run.elapsed), "votes/sec");
        accepted_frac = accepted_frac.min(accepted_votes(&engine) / n as f64);
        engine.shutdown();

        let t0 = Instant::now();
        run_topology(&votes, batch, validate).expect("topology");
        report.row(format!("Trident-like ({tag})"), per_sec(n as u64, t0.elapsed()), "votes/sec");

        let mut engine = DStreamEngine::new(100);
        let t0 = Instant::now();
        run_microbatch(&mut engine, &votes, batch, validate).expect("microbatch");
        report.row(format!("Spark-like ({tag})"), per_sec(n as u64, t0.elapsed()), "votes/sec");
    }
    report.row("accepted_frac", accepted_frac, "of votes offered to S-Store, worse run");
    report
}

/// Reports per second one x-way generates (vehicles report every 30s).
const VEHICLES_PER_XWAY: usize = 60;
const XWAY_REPORT_RATE: f64 = VEHICLES_PER_XWAY as f64 / 30.0;

/// Figure 11: multi-partition scalability on the Linear Road subset.
///
/// The paper reports "x-ways supported per core under a 1-second
/// latency threshold" on a 64-core Xeon. Partitions here time-share
/// whatever cores the host has: the case reports measured aggregate
/// throughput per partition count plus the derived x-ways-supported
/// figure (throughput ÷ the per-x-way report rate). See EXPERIMENTS.md
/// for the honest reading.
pub fn fig11(p: &Params, dir: &DataDir) -> Report {
    let ticks = p.scaled(20);
    let labels = [
        "Figure 11: Linear Road scalability (CAVEAT: single-core host)",
        "partitions",
        "aggregate throughput / derived x-ways",
    ];
    let fig = Figure::sweep(
        labels,
        ["reports/sec", "x-ways supported"],
        &xs(&[1, 2, 4, 8]),
        |partitions| {
            let config =
                inline().with_partitions(partitions as usize).with_data_dir(dir.fresh("fig11"));
            let engine = start(config, linearroad::linear_road_app());
            // Pre-generate so generation cost is outside the timed window.
            let mut traffic = TrafficGen::new(33, partitions as usize * 4, VEHICLES_PER_XWAY);
            let all: Vec<Vec<Tuple>> = (0..ticks)
                .flat_map(|_| traffic.tick())
                .map(|b| b.iter().map(|r| r.tuple()).collect())
                .collect();
            let reports: usize = all.iter().map(Vec::len).sum();
            let run = drive(&engine, "reports", &all, None, false);
            engine.shutdown();
            let rate = per_sec(reports as u64, run.elapsed);
            [rate, (rate / XWAY_REPORT_RATE).floor()]
        },
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report("fig11", &[("ticks", ticks as f64), ("cores", cores as f64)], vec![fig])
}

/// Ablation: the streaming scheduler's front-of-queue fast-tracking vs
/// plain H-Store FIFO, on the PE-trigger chain. Both are *correct* for
/// a linear workflow; the streaming scheduler bounds per-round latency
/// (rounds finish before new borders start) — visible as round
/// completion spread.
pub fn ablation_scheduler(p: &Params, dir: &DataDir) -> Report {
    let wfs = p.scaled(2000);
    let batches = ints(wfs);
    let labels =
        ["Ablation: scheduler discipline (PE-trigger chain)", "workflow size", "workflows/sec"];
    let fig = Figure::sweep(labels, ["streaming sched", "plain FIFO"], &xs(&[2, 4, 8]), |n| {
        [SchedulerMode::Streaming, SchedulerMode::Fifo].map(|mode| {
            let config = inline().with_scheduler(mode);
            let run = stream_through(dir, config, micro::pe_chain(n as usize), "wf_in", &batches);
            per_sec(run.workflows, run.elapsed)
        })
    });
    report("ablation-scheduler", &[("workflows", wfs as f64)], vec![fig])
}
