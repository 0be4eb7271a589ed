//! `hotpath` and `scaling`: tuples/sec through the full
//! ingest → trigger cascade → commit path, by workload and by partition
//! count. Every (workload, partitions) pair is measured in three
//! interleaved rounds of `--secs / 3` and reported as the median, so
//! the rows of one report can be divided by one another.

use sstore_common::{tuple, Tuple};
use sstore_engine::{App, BoundaryMode, EngineConfig};
use sstore_workloads::micro;
use sstore_workloads::voter::{self, DELETE_EVERY};

use super::{accepted_votes, CONTESTANTS};
use crate::{interleaved, run_for, start, DataDir, Params, Report};

const ROUNDS: usize = 3;

/// What a workload's input tuples are, by global sequence number.
enum Input {
    /// `(i)`.
    Ints,
    /// `(i % 16, i)`: keys that spread over partitions, so the split
    /// actually fans out.
    Keyed,
    /// Votes for the leaderboard application (contestants are seeded
    /// first), from [`LiveVotes`].
    Votes,
}

struct Workload {
    name: &'static str,
    app: fn() -> App,
    boundary: BoundaryMode,
    stream: &'static str,
    batch: usize,
    input: Input,
}

/// Votes the leaderboard application accepts, every one: unique phones,
/// and contestants drawn only from those the show still has. Contestants
/// take votes in turn from the highest id down, so counts never differ by
/// more than one and never rise towards lower ids — which makes the
/// contestant `delete_lowest` removes at each `DELETE_EVERY`-th vote
/// (lowest count, then lowest id) always the lowest id still in. Without
/// this the show collapses to its winner within seconds and a run times
/// the one-statement reject path (EXPERIMENTS.md, "What the voter cases
/// measure").
struct LiveVotes {
    sent: i64,
    lowest_live: i64,
    next: i64,
}

impl LiveVotes {
    const LAST: i64 = CONTESTANTS as i64;

    fn new() -> Self {
        LiveVotes { sent: 0, lowest_live: 1, next: Self::LAST }
    }

    /// The next `n` votes. Batch sizes must divide `DELETE_EVERY`: the
    /// application looks for an elimination once per batch.
    fn batch(&mut self, n: usize) -> Vec<Tuple> {
        let rows = (0..n)
            .map(|_| {
                let contestant = self.next;
                self.next = if contestant > self.lowest_live { contestant - 1 } else { Self::LAST };
                self.sent += 1;
                tuple![5_600_000_000 + self.sent, contestant, self.sent]
            })
            .collect();
        if self.sent % DELETE_EVERY == 0 && self.lowest_live < Self::LAST {
            self.lowest_live += 1;
            if self.next < self.lowest_live {
                self.next = Self::LAST; // the eliminated one was all that was left of the round
            }
        }
        rows
    }
}

/// One timed run of `w` on `partitions` partitions: (tuples/sec,
/// fraction of votes accepted — 1 for workloads without votes).
fn measure(w: &Workload, partitions: usize, secs: f64, dir: &DataDir) -> (f64, f64) {
    let config = EngineConfig::default()
        .with_boundary(w.boundary)
        .with_partitions(partitions)
        .with_data_dir(dir.fresh(w.name));
    let engine = start(config, (w.app)());
    let (mut next, mut votes) = (0i64, LiveVotes::new());
    let mut ints = |keyed: bool| -> Vec<Tuple> {
        let rows =
            (next..next + w.batch as i64)
                .map(|i| if keyed { tuple![i % 16, i] } else { tuple![i] });
        next += w.batch as i64;
        rows.collect()
    };
    let measured = match w.input {
        Input::Ints => (run_for(&engine, w.stream, || ints(false), secs), 1.0),
        Input::Keyed => (run_for(&engine, w.stream, || ints(true), secs), 1.0),
        Input::Votes => {
            voter::seed(&engine, CONTESTANTS).expect("seed contestants");
            let rate = run_for(&engine, w.stream, || votes.batch(w.batch), secs);
            (rate, accepted_votes(&engine) / votes.sent as f64)
        }
    };
    engine.shutdown();
    measured
}

/// Medians over [`ROUNDS`] interleaved rounds of every (workload,
/// partitions) pair, as rows named by `name`; returns the worst
/// accepted-vote fraction seen.
fn measure_all(
    report: &mut Report,
    pairs: &[(&Workload, usize)],
    name: impl Fn(&Workload, usize) -> String,
    secs: f64,
    dir: &DataDir,
) -> f64 {
    let mut accepted = 1.0f64;
    let medians = interleaved(ROUNDS, pairs.len(), |i| {
        let (rate, frac) = measure(pairs[i].0, pairs[i].1, secs / ROUNDS as f64, dir);
        accepted = accepted.min(frac);
        rate
    });
    for (&(w, partitions), median) in pairs.iter().zip(medians) {
        report.row(name(w, partitions), median, "tuples/s");
    }
    accepted
}

const fn chain(name: &'static str, app: fn() -> App, boundary: BoundaryMode) -> Workload {
    Workload { name, app, boundary, stream: "chain_in", batch: 100, input: Input::Ints }
}

const fn votes(name: &'static str, batch: usize) -> Workload {
    Workload {
        name,
        app: || voter::leaderboard_app(true),
        boundary: BoundaryMode::Inline,
        stream: "votes_in",
        batch,
        input: Input::Votes,
    }
}

/// The fig5-style 10-stage EE-trigger chain (both boundaries, and as
/// H-Store runs it: a PE→EE statement per stage) and the leaderboard
/// workflow at 1 and 100 votes per batch.
const HOTPATH: &[Workload] = &[
    chain("ee_chain10_inline", || micro::ee_chain_sstore(10), BoundaryMode::Inline),
    chain("ee_chain10_channel", || micro::ee_chain_sstore(10), BoundaryMode::Channel),
    chain("ee_chain10_hstore", || micro::ee_chain_hstore(10), BoundaryMode::Channel),
    votes("voter_inline", 1),
    votes("voter_batch100_inline", 100),
];

/// Hot-path throughput, `--secs` (default 3) per case.
pub fn hotpath(p: &Params, dir: &DataDir) -> Report {
    let secs = p.secs_or(3.0);
    let mut report = Report::new("hotpath", &[("secs", secs)]);
    let pairs: Vec<_> = HOTPATH.iter().map(|w| (w, 1)).collect();
    let accepted = measure_all(&mut report, &pairs, |w, _| w.name.to_owned(), secs, dir);
    report.row("accepted_frac", accepted, "of votes offered, worst run");
    report
}

/// Hash-routed ingest with no cross-partition edges (the
/// embarrassingly parallel upper bound), and the pipeline where every
/// batch crosses partitions between stages.
const SCALING: &[Workload] = &[
    chain("ee_chain10", || micro::ee_chain_partitioned(10), BoundaryMode::Inline),
    Workload {
        name: "exchange",
        app: micro::exchange_pipeline,
        boundary: BoundaryMode::Inline,
        stream: "xin",
        batch: 100,
        input: Input::Keyed,
    },
];

/// Partition-scaling sweep: 1, 2 and 4 partitions (`--scale` scales
/// the 4), `--secs` (default 3) per case. Partitions are one thread
/// each, so reading the curve needs the `cores` parameter: with fewer
/// cores than partitions the sweep measures scheduling overhead, not
/// engine scaling — the report records the honest number either way.
pub fn scaling(p: &Params, dir: &DataDir) -> Report {
    let secs = p.secs_or(3.0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = Report::new("scaling", &[("secs", secs), ("cores", cores as f64)]);
    let pairs: Vec<_> = SCALING
        .iter()
        .flat_map(|w| [1, 2, 4].into_iter().filter(|&n| n <= p.scaled(4)).map(move |n| (w, n)))
        .collect();
    measure_all(
        &mut report,
        &pairs,
        |w, partitions| format!("{}_p{partitions}", w.name),
        secs,
        dir,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator's arithmetic against the application itself: over
    /// several eliminations, in both batch sizes, every vote offered is
    /// recorded.
    #[test]
    fn live_votes_are_all_accepted_across_eliminations() {
        let dir = DataDir::new("live-votes");
        for batch in [1usize, 100] {
            let engine = start(
                EngineConfig::default().with_data_dir(dir.fresh("v")),
                voter::leaderboard_app(true),
            );
            voter::seed(&engine, CONTESTANTS).expect("seed");
            let mut votes = LiveVotes::new();
            while votes.sent < 3 * DELETE_EVERY + 500 {
                engine.ingest("votes_in", votes.batch(batch)).expect("ingest");
            }
            engine.drain().expect("drain");
            assert_eq!(accepted_votes(&engine), votes.sent as f64, "batch {batch}");
            assert_eq!(votes.lowest_live, 4, "three contestants eliminated");
            engine.shutdown();
        }
    }

    #[test]
    fn the_last_contestant_keeps_every_vote() {
        let mut votes =
            LiveVotes { sent: 0, lowest_live: LiveVotes::LAST - 1, next: LiveVotes::LAST };
        let seen: Vec<i64> =
            (0..2100).map(|_| votes.batch(1)[0].get(1).as_int().unwrap()).collect();
        assert_eq!(&seen[..3], [500, 499, 500]);
        assert!(seen[1000..].iter().all(|&c| c == 500), "one left after the 1000th vote");
        assert_eq!(votes.lowest_live, LiveVotes::LAST, "and it is never eliminated");
    }
}
