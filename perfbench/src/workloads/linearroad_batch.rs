//! `linearroad_batch`: the Linear Road subset in-process on two
//! partitions, 250 reports per batch — the workload where per-tuple cost
//! (EE statements per report, time-window staging, watermark slides,
//! grouped aggregates over window extents, byte-heavy border log
//! records, the key-hash split) does the work; the wire is absent and
//! per-batch overhead is amortised 250 times.

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore_common::{Tuple, Value};
use sstore_engine::engine::hash_partition;
use sstore_engine::Engine;
use sstore_workloads::gen::{PositionReport, TrafficGen};
use sstore_workloads::linearroad;

use super::{
    discard, engine_config, latency_summary, log_segments_on_disk, note_engine_histogram,
    timed_setups, trace_overhead, Counters, PhaseFacts, Report, RunArgs,
};
use crate::layers;
use crate::model::LinearRoadModel;
use crate::stats;
use crate::trace::Tracer;

pub const PARTITIONS: usize = 2;
const XWAYS: usize = 4;
const VEHICLES_PER_XWAY: usize = 250;
/// Reports held back one tick (absorbed by window staging or, when the
/// partition's watermark has already moved, dropped), per thousand.
const LATE_ONE_TICK_PERMILLE: u32 = 20;
/// Reports held back three ticks — beyond `ALLOWED_LATENESS_MS` for the
/// 30 s window, so counted and dropped there — per thousand.
const LATE_BEYOND_PERMILLE: u32 = 2;
const BEYOND_TICKS: u64 = 3;
const WARMUP_TICKS: usize = 50;
/// Epochs per nominal second: each is a fresh engine, warmed up, then
/// `ROUNDS_PER_EPOCH` rounds — about 9 s on the 2-core reference host,
/// frozen. The application's statistics and notification tables only
/// grow (1.5 million rows and 460 MB after 1 700 ticks), and a batch
/// costs more as they do; starting afresh keeps every run at the state
/// size the workload was defined at instead of 3× it, and gives the
/// set-up median real set-ups to rest on.
const EPOCHS_PER_S: f64 = 0.11;
/// A round is one saturation burst, then one stretch of synchronous
/// batches and reads. Alternating the two all the way through makes
/// both sample the whole run.
const ROUNDS_PER_EPOCH: usize = 13;
/// Ticks (four batches each) ingested asynchronously, then drained,
/// timed as a whole; the run reports the median burst.
const BURST_TICKS: usize = 80;
/// Ticks in one synchronous stretch: each is four `ingest_sync` calls,
/// one per x-way, then `READS_PER_TICK` account-balance reads, all back
/// to back from one thread that waits for each.
const STRETCH_TICKS: usize = 50;
/// Reads come ten in a row, not singly: the first after a 1 ms batch
/// finds the vCPUs on its path halted and pays the host's price for
/// waking them (30 µs or 130 by its mood), the next two less (medians
/// 86, 65, 47, 44, 44 µs by place in the row), the rest find them awake,
/// and so the median of all of them is the program's.
const READS_PER_TICK: usize = 10;

const BALANCE_SQL: &str = "SELECT amount FROM tolls WHERE vid = ?";

/// `TrafficGen` with seeded disorder: a small share of each tick's
/// reports is held back and delivered with a later tick's batch of the
/// same x-way, still carrying its original event time.
pub struct DisorderedTraffic {
    gen: TrafficGen,
    rng: StdRng,
    tick: u64,
    /// (release tick, report), oldest first per release tick.
    held: VecDeque<(u64, PositionReport)>,
}

impl DisorderedTraffic {
    pub fn new(seed: u64) -> Self {
        DisorderedTraffic {
            gen: TrafficGen::new(seed, XWAYS, VEHICLES_PER_XWAY),
            rng: StdRng::seed_from_u64(seed ^ 0x6c61_7465),
            tick: 0,
            held: VecDeque::new(),
        }
    }

    /// One batch per x-way for the next tick.
    pub fn next_tick(&mut self) -> Vec<Vec<PositionReport>> {
        self.tick += 1;
        let mut out = Vec::with_capacity(XWAYS);
        let fresh = self.gen.tick();
        let mut due: Vec<PositionReport> = Vec::new();
        self.held.retain(|(release, r)| {
            if *release <= self.tick {
                due.push(*r);
                false
            } else {
                true
            }
        });
        for batch in fresh {
            let mut now = Vec::with_capacity(batch.len() + 8);
            for r in batch {
                let roll = self.rng.gen_range(0..1000u32);
                if roll < LATE_BEYOND_PERMILLE {
                    self.held.push_back((self.tick + BEYOND_TICKS, r));
                } else if roll < LATE_BEYOND_PERMILLE + LATE_ONE_TICK_PERMILLE {
                    self.held.push_back((self.tick + 1, r));
                } else {
                    now.push(r);
                }
            }
            out.push(now);
        }
        for r in due {
            out[r.xway as usize].push(r);
        }
        out
    }
}

fn partition_of(xway: i64) -> usize {
    hash_partition(&Value::Int(xway), PARTITIONS)
}

fn tuples(batch: &[PositionReport]) -> Vec<Tuple> {
    batch.iter().map(PositionReport::tuple).collect()
}

/// Folds a batch into the model and returns it ready to ingest.
fn admit(model: &mut LinearRoadModel, batch: &[PositionReport]) -> Vec<Tuple> {
    if let Some(first) = batch.first() {
        model.apply_batch(partition_of(first.xway), batch);
    }
    tuples(batch)
}

fn set_up(warmup: &[Vec<Tuple>]) -> Engine {
    let engine = Engine::start(
        engine_config("linearroad_batch", PARTITIONS),
        linearroad::linear_road_app(),
    )
    .expect("engine start");
    for b in warmup {
        engine.ingest("reports", b.clone()).expect("warm-up ingest");
    }
    engine.drain().expect("drain");
    engine
}

fn scalar(engine: &Engine, sql: &str) -> i64 {
    (0..PARTITIONS)
        .map(|p| {
            let r = engine.query(p, sql, vec![]).expect("state query");
            r.scalar().map_or(0, |v| v.as_int().unwrap_or(0))
        })
        .sum()
}

/// What the epochs of one run add up to.
#[derive(Default)]
struct Tally {
    setup_s: Vec<f64>,
    rates: Vec<f64>,
    rates_untraced: Vec<f64>,
    commit_us: Vec<f64>,
    read_us: Vec<f64>,
    counters: Counters,
    max_in_flight: usize,
    bursts: usize,
    op: u64,
    reads: u64,
}

/// One epoch: a fresh engine and model, warm-up, the rounds, and the
/// comparison of engine and model. Returns the engine and the traffic,
/// which the layer probes continue from.
fn epoch(
    e: u64,
    args: &RunArgs,
    tr: &mut Tracer,
    tally: &mut Tally,
    report: &mut Report,
) -> (Engine, DisorderedTraffic) {
    let mut traffic = DisorderedTraffic::new(args.seed.wrapping_mul(1_000).wrapping_add(e));
    let mut model = LinearRoadModel::new(PARTITIONS);
    let warmup: Vec<Vec<Tuple>> = (0..args.scaled(WARMUP_TICKS))
        .flat_map(|_| traffic.next_tick())
        .map(|b| admit(&mut model, &b))
        .collect();
    // Repeated set-ups in the first epoch only: the others add one each.
    let engine = timed_setups(
        if e == 0 { args.setup_reps } else { 1 },
        || set_up(&warmup),
        discard,
        &mut tally.setup_s,
    );
    drop(warmup);
    let before = Counters::read(&engine);

    let (burst_ticks, stretch_ticks) = (args.scaled(BURST_TICKS), args.scaled(STRETCH_TICKS));
    let mut last_vid = 0i64;
    for _ in 0..ROUNDS_PER_EPOCH {
        let batches: Vec<Vec<Tuple>> = (0..burst_ticks)
            .flat_map(|_| traffic.next_tick())
            .map(|b| admit(&mut model, &b))
            .collect();
        let n: usize = batches.iter().map(Vec::len).sum();
        // Every other burst untraced when tracing: one run holds both
        // sides of the tracing-overhead comparison.
        let traced = args.trace && tally.bursts.is_multiple_of(2);
        tally.bursts += 1;
        tr.set_on(traced);
        let t0 = Instant::now();
        for rows in batches {
            let s = tr.begin("ingest", tally.op);
            let sent = engine.ingest("reports", rows);
            tr.end(s);
            report.failed += u64::from(sent.is_err());
            tally.op += 1;
            let in_flight = (0..PARTITIONS).map(|p| engine.admitted_in_flight(p)).max();
            tally.max_in_flight = tally.max_in_flight.max(in_flight.unwrap_or(0));
        }
        let s = tr.begin("drain", tally.op);
        engine.drain().expect("drain");
        tr.end(s);
        let rate = n as f64 / t0.elapsed().as_secs_f64();
        if args.trace && !traced {
            tally.rates_untraced.push(rate);
        } else {
            tally.rates.push(rate);
        }

        tr.set_on(args.trace);
        let one_cpu = crate::host::OneCpu::confine();
        for _ in 0..stretch_ticks {
            for batch in traffic.next_tick() {
                last_vid = batch.first().map_or(last_vid, |r| r.vid);
                let rows = admit(&mut model, &batch);
                let t0 = Instant::now();
                let s = tr.begin("ingest", tally.op);
                let r = engine.ingest_sync("reports", rows);
                tr.end(s);
                tally.commit_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                report.failed += u64::from(r.is_err());
                tally.op += 1;
            }
            // Balances of vehicles of the x-way whose batch came last.
            for k in 0..READS_PER_TICK as i64 {
                let vid = last_vid - last_vid % 1_000_000 + (last_vid + k) % 250;
                let t0 = Instant::now();
                let s = tr.begin("query", tally.op);
                let r = engine.query(
                    partition_of(vid / 1_000_000),
                    BALANCE_SQL,
                    vec![Value::Int(vid)],
                );
                tr.end(s);
                tally.read_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                report.failed += u64::from(!r.is_ok_and(|r| r.rows.len() == 1));
                tally.op += 1;
                tally.reads += 1;
            }
        }
        drop(one_cpu);
    }
    engine.drain().expect("drain after the last round");
    let after = Counters::read(&engine);
    after.add_delta_since(&before, &mut tally.counters);

    // Correctness: recomputed from the generated reports.
    let name = |what: &str| format!("epoch{e}.{what}");
    report.check_eq(
        &name("seg_stats_sum_cnt"),
        scalar(&engine, "SELECT SUM(cnt) FROM seg_stats"),
        model.seg_stats_count() as i64,
    );
    report.check_eq(
        &name("vehicles"),
        scalar(&engine, "SELECT COUNT(*) FROM vehicles"),
        model.vehicles() as i64,
    );
    report.check_eq(
        &name("toll_sum"),
        scalar(&engine, "SELECT SUM(amount) FROM tolls"),
        model.toll_sum(),
    );
    let counted = Counters::read(&engine);
    report.check_eq(
        &name("window_late_dropped"),
        counted.late_dropped,
        model.late_dropped(),
    );
    report.check_eq(
        &name("window_late_merged"),
        counted.late_merged,
        model.late_merged(),
    );
    report.check_eq(
        &name("window_slides"),
        counted.window_slides,
        model.slides(),
    );
    report.check_eq(&name("txns_aborted"), counted.txns_aborted, 0);
    report.check(
        &name("disorder_exercised"),
        model.late_dropped() > 0,
        "no report was dropped as late",
    );
    (engine, traffic)
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut tr = Tracer::new(
        Instant::now(),
        if args.trace { 200_000 } else { 0 },
        args.trace,
    );
    let epochs = args.count(EPOCHS_PER_S, 1);
    let mut rss_after_setup = f64::NAN;
    let mut last = None;
    for e in 0..epochs {
        if let Some((engine, _)) = last.take() {
            discard(engine);
        }
        last = Some(epoch(e, args, &mut tr, &mut tally, &mut report));
        if e == 0 {
            rss_after_setup = crate::host::peak_rss_mb();
        }
    }
    let (engine, mut traffic) = last.expect("at least one epoch");
    report.attempted = tally.op;

    let peak_rss = crate::host::peak_rss_mb();
    let setups = tally.setup_s.len() as u64;
    let throughput = stats::median(&mut tally.rates);
    let (p50, tail, max, n) = latency_summary(&mut tally.commit_us, 99.0);
    let (read_p50, read_tail, _, read_n) = latency_summary(&mut tally.read_us, 99.0);
    report.e2e = vec![
        ("setup_s", stats::median(&mut tally.setup_s), setups),
        ("peak_rss_mb", peak_rss, 1),
        ("throughput_per_s", throughput, tally.rates.len() as u64),
        ("latency_p50_us", p50, n),
        ("second_p50_us", read_p50, read_n),
    ];
    note_engine_histogram(&mut report, &engine);

    if args.trace {
        let facts = PhaseFacts {
            counters: tally.counters,
            latency_p50_us: p50,
            latency_tail_us: tail,
            latency_max_us: max,
            second_tail_us: read_tail,
            trace_overhead_frac: trace_overhead(&mut tally.rates, &mut tally.rates_untraced),
            max_in_flight: tally.max_in_flight as u64,
            border_ops: tally.op - tally.reads,
            log_segments: log_segments_on_disk(engine.config()),
            rss_growth_mb: peak_rss - rss_after_setup,
            ..PhaseFacts::default()
        };
        // The traffic simply continues: input the engine has not seen.
        let sample_batches: Vec<Vec<Tuple>> = (0..layers::SAMPLE_BATCHES.div_ceil(XWAYS))
            .flat_map(|_| traffic.next_tick())
            .map(|b| tuples(&b))
            .collect();
        let sample = layers::Sample::linear_road(sample_batches);
        report.layer = layers::ledger(
            "linearroad_batch",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_disorder_is_deterministic_and_loses_nothing() {
        let run = |seed| {
            let mut t = DisorderedTraffic::new(seed);
            (0..40).map(|_| t.next_tick()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "same seed ⇒ same batches in the same order");
        assert_ne!(run(5), run(6));
        let ticks = run(5);
        // Every batch holds one x-way only (so it routes to one partition).
        for tick in &ticks {
            for (x, batch) in tick.iter().enumerate() {
                assert!(batch.iter().all(|r| r.xway == x as i64));
            }
        }
        // Held-back reports arrive late with their original time; after
        // 40 ticks all but the last few ticks' stragglers have arrived.
        let delivered: usize = ticks.iter().flatten().map(Vec::len).sum();
        let generated = 40 * XWAYS * VEHICLES_PER_XWAY;
        assert!(delivered <= generated && generated - delivered < 200);
        let late = ticks
            .iter()
            .enumerate()
            .flat_map(|(i, tick)| {
                tick.iter()
                    .flatten()
                    .map(move |r| (i as i64 + 1) * 30_000 - r.time)
            })
            .filter(|lag| *lag > 0)
            .collect::<Vec<_>>();
        assert!(late.contains(&30_000) && late.contains(&90_000));
        let share = late.len() as f64 / delivered as f64;
        assert!(
            (0.012..0.035).contains(&share),
            "≈2.2 % displaced, got {share}"
        );
    }
}
