//! `voter_recovery`: the leaderboard application in-process with
//! 100-vote batches, cycled through checkpoint and crash recovery — the
//! only workload where the log lifecycle, `Engine::checkpoint`,
//! `recovery::recover` and the storage snapshot do the work. Batches of
//! 100 amortise per-batch cost, so it is also the voter counter-example
//! to `voter_wire`.

use std::time::Instant;

use sstore_common::Tuple;
use sstore_engine::{recovery, Engine, EngineConfig, RecoveryMode};
use sstore_workloads::gen::Vote;
use sstore_workloads::voter;

use super::voter_input::{self, read_state, CONTESTANTS, WARMUP_VOTES};
use super::{
    discard, engine_config, latency_summary, log_segments_on_disk, note_engine_histogram,
    trace_overhead, Counters, PhaseFacts, Report, RunArgs,
};
use crate::layers;
use crate::stats;
use crate::trace::Tracer;

pub const BATCH_VOTES: usize = 100;
/// Votes ingested before the checkpoint, and again before the crash.
const HALF_CYCLE_VOTES: usize = 10_000;
/// Cycles on one engine before the next epoch starts on a fresh one:
/// the first checkpoint writes a base image and the next
/// `DELTA_CHAIN_MAX` write deltas, so an epoch holds one recovery from
/// each length of image chain. The votes table only grows, and with it
/// both timings (recovery from 0.08 s to 5.8 s over 45 cycles on one
/// engine), so a median over one ever-longer run is a function of its
/// length; over epochs it is the same figure however long the run.
const CYCLES_PER_EPOCH: usize = DELTA_CHAIN_MAX + 1;
/// Epochs per nominal second (about 1.4 s each on the 2-core reference
/// host, frozen).
const EPOCHS_PER_S: f64 = 0.65;
const SEGMENT_BYTES: u64 = 1 << 20;
const DELTA_CHAIN_MAX: usize = 4;

pub fn config(tag: &str) -> EngineConfig {
    engine_config(tag, 1)
        .with_recovery(RecoveryMode::Strong)
        .with_segment_bytes(SEGMENT_BYTES)
        .with_delta_chain_max(DELTA_CHAIN_MAX)
}

fn batches(votes: &[Vote]) -> Vec<Vec<Tuple>> {
    votes.chunks(BATCH_VOTES).map(voter::vote_tuples).collect()
}

fn set_up(warmup: &[Vec<Tuple>]) -> Engine {
    let engine = Engine::start(config("voter_recovery"), voter::leaderboard_app(true))
        .expect("engine start");
    voter::seed(&engine, CONTESTANTS).expect("seed contestants");
    for b in warmup {
        engine
            .ingest("votes_in", b.clone())
            .expect("warm-up ingest");
    }
    engine.drain().expect("drain");
    engine
}

/// Ingests and drains; returns seconds and failures.
fn ingest_all(engine: &Engine, input: &[Vec<Tuple>], op: &mut u64, tr: &mut Tracer) -> (f64, u64) {
    let t0 = Instant::now();
    let mut failed = 0;
    for b in input {
        let s = tr.begin("ingest", *op);
        failed += u64::from(engine.ingest("votes_in", b.clone()).is_err());
        tr.end(s);
        *op += 1;
    }
    let s = tr.begin("drain", *op);
    engine.drain().expect("drain");
    tr.end(s);
    (t0.elapsed().as_secs_f64(), failed)
}

pub fn run(args: &RunArgs) -> Report {
    let half = args.scaled(HALF_CYCLE_VOTES).max(BATCH_VOTES);
    let warm = args.scaled(WARMUP_VOTES).max(BATCH_VOTES);
    let epochs = args.count(EPOCHS_PER_S, 1);
    let total = warm + CYCLES_PER_EPOCH * 2 * half;
    let extra = layers::SAMPLE_BATCHES * BATCH_VOTES;

    let mut report = Report::default();
    let mut tr = Tracer::new(
        Instant::now(),
        if args.trace { 100_000 } else { 0 },
        args.trace,
    );
    let mut counters = Counters::default();
    let (mut rates, mut rates_untraced) = (Vec::new(), Vec::new());
    let (mut setup_s, mut checkpoint_us, mut recover_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut replayed = 0u64;
    let mut op = 0u64;
    let mut cycles = 0u64;
    let mut rss_after_setup = f64::NAN;
    let mut last = None;
    for e in 0..epochs {
        if let Some((engine, _)) = last.take() {
            discard(engine);
        }
        // Only the last epoch's stream is drawn past its end, for the
        // layer probes.
        let extra = if e + 1 == epochs { extra } else { 0 };
        let seed = args.seed.wrapping_mul(1_000).wrapping_add(e);
        let (votes, model) = voter_input::generate(seed, total, BATCH_VOTES, extra);
        let (warmup, rest) = votes[..total].split_at(warm);
        let warmup = batches(warmup);
        let t0 = Instant::now();
        let mut engine = set_up(&warmup);
        setup_s.push(t0.elapsed().as_secs_f64());
        if e == 0 {
            rss_after_setup = crate::host::peak_rss_mb();
        }
        let cfg = engine.config().clone();

        for cycle in rest.chunks(2 * half) {
            let before = Counters::read(&engine);
            // Every other cycle untraced when tracing: one run holds
            // both sides of the tracing-overhead comparison.
            let traced = args.trace && cycles.is_multiple_of(2);
            tr.set_on(traced);
            let (first, second) = cycle.split_at(half);
            let (t1, f1) = ingest_all(&engine, &batches(first), &mut op, &mut tr);
            let s = tr.begin("checkpoint", cycles);
            let t0 = Instant::now();
            let ck = engine.checkpoint();
            let ck_s = t0.elapsed().as_secs_f64();
            tr.end(s);
            let (t2, f2) = ingest_all(&engine, &batches(second), &mut op, &mut tr);
            report.failed += f1 + f2 + u64::from(ck.is_err());
            let rate = cycle.len() as f64 / (t1 + ck_s + t2);
            if args.trace && !traced {
                rates_untraced.push(rate);
            } else {
                rates.push(rate);
            }
            checkpoint_us.push(ck_s * 1e6);

            // Crash: what was flushed is all recovery gets.
            engine.flush_logs().expect("flush logs");
            let state_before = read_state(&engine);
            Counters::read(&engine).add_delta_since(&before, &mut counters);
            engine.shutdown();
            let s = tr.begin("recover", cycles);
            let t0 = Instant::now();
            let recovered = recovery::recover(cfg.clone(), voter::leaderboard_app(true));
            recover_us.push(t0.elapsed().as_secs_f64() * 1e6);
            tr.end(s);
            let (recovered, rec_report) = recovered.expect("recover");
            replayed += rec_report.records_replayed as u64;
            engine = recovered;
            let same = read_state(&engine) == state_before;
            report.check(
                &format!("recovered_state_cycle_{cycles}"),
                same,
                "state after recover ≠ state before the crash",
            );
            cycles += 1;
        }
        voter_input::check(&mut report, &engine, &model, total as u64);
        last = Some((engine, votes));
    }
    let (engine, votes) = last.expect("at least one epoch");
    report.attempted = op + 2 * cycles;

    let peak_rss = crate::host::peak_rss_mb();
    let setups = setup_s.len() as u64;
    let throughput = stats::median(&mut rates);
    // A cycle's place in its epoch decides what its checkpoint writes
    // and its recovery reads (5, 6, 8, 11 and 20 ms; 80 to 210 ms), so
    // each figure is the mean over the places of that place's median.
    let p50 = stats::mean_of_medians(&checkpoint_us, CYCLES_PER_EPOCH);
    let rec_p50 = stats::mean_of_medians(&recover_us, CYCLES_PER_EPOCH);
    let (_, tail, max, n) = latency_summary(&mut checkpoint_us, 99.0);
    let (_, rec_tail, _, rec_n) = latency_summary(&mut recover_us, 99.0);
    report.e2e = vec![
        ("setup_s", stats::median(&mut setup_s), setups),
        ("peak_rss_mb", peak_rss, 1),
        ("throughput_per_s", throughput, rates.len() as u64),
        ("latency_p50_us", p50, n),
        ("second_p50_us", rec_p50, rec_n),
    ];
    report.note(format!(
        "{replayed} log records replayed over {cycles} recoveries"
    ));
    note_engine_histogram(&mut report, &engine);
    report.check_eq("txns_aborted", counters.txns_aborted, 0);

    if args.trace {
        let mut facts = PhaseFacts {
            counters,
            latency_p50_us: p50,
            latency_tail_us: tail,
            latency_max_us: max,
            second_tail_us: rec_tail,
            trace_overhead_frac: trace_overhead(&mut rates, &mut rates_untraced),
            rss_growth_mb: peak_rss - rss_after_setup,
            ..PhaseFacts::default()
        };
        facts.log_segments = log_segments_on_disk(engine.config());
        let sample = layers::Sample::voter_recovery(batches(&votes[total..]));
        report.layer = layers::ledger(
            "voter_recovery",
            &sample,
            &facts,
            engine,
            &[("generator", &tr)],
            args,
        );
    } else {
        discard(engine);
    }
    report
}
