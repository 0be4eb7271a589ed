//! Sequential reference models the engine's final state is checked
//! against. Each is a plain fold over the same inputs the engine was
//! given, written from the applications' definitions
//! (`workloads::voter`, `workloads::linearroad`) and the documented
//! window semantics — not by calling the engine's own state machines.

use std::collections::{BTreeMap, HashMap, VecDeque};

use sstore_workloads::gen::{PositionReport, Vote};
use sstore_workloads::voter::{DELETE_EVERY, TREND_WINDOW};

/// One `leaderboard` row: (kind, contestant, cnt).
pub type BoardRow = (String, i64, i64);

/// validate → maintain → delete_lowest, one batch at a time.
#[derive(Clone)]
pub struct VoterModel {
    /// `vote_counts`: active contestants and their totals.
    counts: BTreeMap<i64, i64>,
    total: i64,
    /// `votes`, by its unique phone index.
    phones: HashMap<i64, i64>,
    /// `votes`, by contestant (what `purge_votes` deletes).
    by_contestant: HashMap<i64, Vec<i64>>,
    /// The last `TREND_WINDOW` valid votes' contestants; the window is
    /// empty until its first slide, i.e. until it has seen that many.
    trend: VecDeque<i64>,
    trend_seen: usize,
    /// The leaderboard as the last `maintain` left it and a later
    /// `delete_lowest` pruned it; `None` while it equals what the
    /// current state would produce.
    board: Option<Vec<BoardRow>>,
    pub accepted: u64,
    pub rejected: u64,
    pub deletions: u64,
}

impl VoterModel {
    pub fn new(contestants: usize) -> Self {
        VoterModel {
            counts: (1..=contestants as i64).map(|c| (c, 0)).collect(),
            total: 0,
            phones: HashMap::new(),
            by_contestant: HashMap::new(),
            trend: VecDeque::with_capacity(TREND_WINDOW + 1),
            trend_seen: 0,
            board: Some(Vec::new()),
            accepted: 0,
            rejected: 0,
            deletions: 0,
        }
    }

    /// One ingested batch = one workflow round.
    pub fn apply_batch(&mut self, votes: &[Vote]) {
        let mut valid = 0;
        for v in votes {
            if !self.counts.contains_key(&v.contestant) || self.phones.contains_key(&v.phone) {
                self.rejected += 1;
                continue;
            }
            self.phones.insert(v.phone, v.contestant);
            self.by_contestant
                .entry(v.contestant)
                .or_default()
                .push(v.phone);
            // maintain, per vote: trending window, counters.
            self.trend.push_back(v.contestant);
            if self.trend.len() > TREND_WINDOW {
                self.trend.pop_front();
            }
            self.trend_seen += 1;
            *self.counts.get_mut(&v.contestant).expect("checked active") += 1;
            self.total += 1;
            valid += 1;
        }
        self.accepted += valid;
        if valid == 0 {
            return; // validate emitted nothing: the round ends there
        }
        self.board = None; // maintain rebuilt all three boards
                           // delete_lowest looks at the total once per round.
        if self.total % DELETE_EVERY != 0 || self.counts.len() <= 1 {
            return;
        }
        let lowest = self
            .counts
            .iter()
            .min_by_key(|(c, n)| (**n, **c))
            .map(|(c, _)| *c)
            .expect("more than one contestant");
        let mut board = self.leaderboard();
        board.retain(|(_, c, _)| *c != lowest);
        self.board = Some(board);
        self.counts.remove(&lowest);
        for phone in self.by_contestant.remove(&lowest).unwrap_or_default() {
            self.phones.remove(&phone);
        }
        self.deletions += 1;
    }

    fn ranked(items: impl Iterator<Item = (i64, i64)>, descending: bool) -> Vec<(i64, i64)> {
        let mut v: Vec<(i64, i64)> = items.collect();
        v.sort_by_key(|&(c, n)| (if descending { -n } else { n }, c));
        v.truncate(3);
        v
    }

    /// `leaderboard` rows, sorted.
    pub fn leaderboard(&self) -> Vec<BoardRow> {
        if let Some(b) = &self.board {
            return b.clone();
        }
        let counts = || self.counts.iter().map(|(c, n)| (*c, *n));
        let mut rows = Vec::with_capacity(9);
        for (c, n) in Self::ranked(counts(), true) {
            rows.push(("top".to_owned(), c, n));
        }
        for (c, n) in Self::ranked(counts(), false) {
            rows.push(("bottom".to_owned(), c, n));
        }
        if self.trend_seen >= TREND_WINDOW {
            let mut freq: BTreeMap<i64, i64> = BTreeMap::new();
            for c in &self.trend {
                *freq.entry(*c).or_default() += 1;
            }
            for (c, n) in Self::ranked(freq.into_iter(), true) {
                rows.push(("trend".to_owned(), c, n));
            }
        }
        rows.sort();
        rows
    }

    /// `vote_counts` rows, by contestant.
    pub fn vote_counts(&self) -> Vec<(i64, i64)> {
        self.counts.iter().map(|(c, n)| (*c, *n)).collect()
    }

    pub fn total_votes(&self) -> i64 {
        self.total
    }

    pub fn votes_rows(&self) -> usize {
        self.phones.len()
    }

    pub fn active_contestants(&self) -> usize {
        self.counts.len()
    }

    /// `contestant` if still in the show, else the nearest remaining
    /// one below it (above it when none is below).
    pub fn nearest_active(&self, contestant: i64) -> i64 {
        self.counts
            .range(..=contestant)
            .next_back()
            .or_else(|| self.counts.iter().next())
            .map_or(contestant, |(c, _)| *c)
    }
}

/// One event-time window: extents `[k·slide, k·slide + size)`, fired by
/// the partition watermark at commit; arrivals older than every future
/// extent merge into the active one within `lateness`, else are counted
/// and dropped. Tuples are only counted here — the checks need how many
/// were aggregated, merged and dropped, not their contents.
pub struct TimeWindowModel {
    size: i64,
    slide: i64,
    lateness: i64,
    watermark: Option<i64>,
    next_end: Option<i64>,
    fired: bool,
    staging: BTreeMap<i64, u64>,
    active: BTreeMap<i64, u64>,
    pub dropped: u64,
    pub merged: u64,
    pub slides: u64,
    /// Σ over fired extents of the rows the on-slide trigger saw.
    pub aggregated: u64,
}

impl TimeWindowModel {
    pub fn new(size: i64, slide: i64, lateness: i64) -> Self {
        TimeWindowModel {
            size,
            slide,
            lateness,
            watermark: None,
            next_end: None,
            fired: false,
            staging: BTreeMap::new(),
            active: BTreeMap::new(),
            dropped: 0,
            merged: 0,
            slides: 0,
            aggregated: 0,
        }
    }

    /// End of the earliest extent containing `ts`.
    fn first_end_for(&self, ts: i64) -> i64 {
        ((ts - self.size).div_euclid(self.slide) + 1) * self.slide + self.size
    }

    pub fn arrive(&mut self, ts: i64) {
        let future = match self.next_end {
            Some(e) if self.fired => ts >= e - self.size,
            _ => true,
        };
        if future {
            if !self.fired {
                // Until the first extent fires the origin still moves
                // back to cover the earliest arrival.
                let e = self.first_end_for(ts);
                self.next_end = Some(self.next_end.map_or(e, |cur| cur.min(e)));
            }
            *self.staging.entry(ts).or_default() += 1;
            return;
        }
        let e = self.next_end.expect("fired implies an extent cursor");
        let active_start = e - self.slide - self.size;
        let wm = self.watermark.unwrap_or(i64::MIN);
        if ts >= active_start && wm.saturating_sub(ts) <= self.lateness {
            *self.active.entry(ts).or_default() += 1;
            self.merged += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// The transaction that brought the arrivals commits with the
    /// partition's high mark at `wm`; every extent it passes fires.
    pub fn commit(&mut self, wm: i64) {
        let wm = self.watermark.map_or(wm, |w| w.max(wm));
        self.watermark = Some(wm);
        if let Some(e) = self.next_end {
            if wm >= e && self.staging.is_empty() && self.active.is_empty() {
                self.next_end = Some(self.first_end_for(wm));
                self.fired = true;
            }
        }
        while let Some(e) = self.next_end {
            if wm < e {
                break;
            }
            let start = e - self.size;
            self.fired = true;
            let activating = self.staging.range(..e).next().is_some();
            let expiring = self.active.range(..start).next().is_some();
            if !activating && !expiring {
                // Nothing changes: skip ahead, never past the
                // watermark's own extent.
                let jump = if self.active.is_empty() {
                    let cap = self.first_end_for(wm);
                    match self.staging.keys().next() {
                        Some(&min_ts) => self.first_end_for(min_ts).min(cap),
                        None => cap,
                    }
                } else {
                    e + self.slide
                };
                self.next_end = Some(jump.max(e + self.slide));
                continue;
            }
            self.active = self.active.split_off(&start);
            let later = self.staging.split_off(&e);
            for (ts, n) in std::mem::replace(&mut self.staging, later) {
                *self.active.entry(ts).or_default() += n;
            }
            self.next_end = Some(e + self.slide);
            self.slides += 1;
            self.aggregated += self.active.values().sum::<u64>();
        }
    }
}

/// The Linear Road subset: position tracking and tolls (global — a
/// vehicle never changes x-way, so never partition), and the two
/// segment-statistics windows per partition.
pub struct LinearRoadModel {
    /// vid → last reported segment, in arrival order.
    vehicles: HashMap<i64, i64>,
    pub crossings: u64,
    /// Per partition: (seg_win, speed_win, high mark).
    parts: Vec<(TimeWindowModel, TimeWindowModel, i64)>,
    pub reports: u64,
}

impl LinearRoadModel {
    pub fn new(partitions: usize) -> Self {
        use sstore_workloads::linearroad::{
            ALLOWED_LATENESS_MS, SPEED_SLIDE_MS, SPEED_WINDOW_MS, STATS_WINDOW_MS,
        };
        LinearRoadModel {
            vehicles: HashMap::new(),
            crossings: 0,
            parts: (0..partitions)
                .map(|_| {
                    (
                        TimeWindowModel::new(STATS_WINDOW_MS, STATS_WINDOW_MS, ALLOWED_LATENESS_MS),
                        TimeWindowModel::new(SPEED_WINDOW_MS, SPEED_SLIDE_MS, ALLOWED_LATENESS_MS),
                        i64::MIN,
                    )
                })
                .collect(),
            reports: 0,
        }
    }

    /// One batch, all of one x-way, hence of one partition.
    pub fn apply_batch(&mut self, partition: usize, batch: &[PositionReport]) {
        let (seg_win, speed_win, high) = &mut self.parts[partition];
        for r in batch {
            let crossed = self.vehicles.insert(r.vid, r.seg) != Some(r.seg);
            self.crossings += u64::from(crossed);
            seg_win.arrive(r.time);
            speed_win.arrive(r.time);
            *high = (*high).max(r.time);
        }
        self.reports += batch.len() as u64;
        if !batch.is_empty() {
            seg_win.commit(*high);
            speed_win.commit(*high);
        }
    }

    pub fn vehicles(&self) -> usize {
        self.vehicles.len()
    }

    /// `SUM(amount)` over `tolls`: 2 per segment crossing.
    pub fn toll_sum(&self) -> i64 {
        2 * self.crossings as i64
    }

    /// `SUM(cnt)` over `seg_stats`, all partitions.
    pub fn seg_stats_count(&self) -> u64 {
        self.parts.iter().map(|(w, _, _)| w.aggregated).sum()
    }

    pub fn late_dropped(&self) -> u64 {
        self.parts
            .iter()
            .map(|(a, b, _)| a.dropped + b.dropped)
            .sum()
    }

    pub fn late_merged(&self) -> u64 {
        self.parts.iter().map(|(a, b, _)| a.merged + b.merged).sum()
    }

    pub fn slides(&self) -> u64 {
        self.parts.iter().map(|(a, b, _)| a.slides + b.slides).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vote(phone: i64, contestant: i64) -> Vote {
        Vote {
            phone,
            contestant,
            ts: 0,
        }
    }

    #[test]
    fn voter_model_rejects_duplicates_and_unknown_contestants() {
        let mut m = VoterModel::new(3);
        m.apply_batch(&[vote(1, 1), vote(1, 2), vote(2, 9), vote(3, 1)]);
        assert_eq!((m.accepted, m.rejected), (2, 2));
        assert_eq!(m.vote_counts(), vec![(1, 2), (2, 0), (3, 0)]);
        let top: Vec<_> = m
            .leaderboard()
            .into_iter()
            .filter(|r| r.0 == "top")
            .collect();
        assert_eq!(top[0], ("top".to_owned(), 1, 2));
        assert!(
            m.leaderboard().iter().all(|r| r.0 != "trend"),
            "window not yet full"
        );
    }

    #[test]
    fn voter_model_eliminates_the_lowest_and_frees_their_phones() {
        let mut m = VoterModel::new(3);
        // 999 votes for contestant 1, then the 1000th for 3: 2 has none.
        for p in 0..999 {
            m.apply_batch(&[vote(p, 1)]);
        }
        m.apply_batch(&[vote(5000, 3)]);
        assert_eq!(m.total_votes(), 1000);
        assert_eq!(m.deletions, 1);
        // Lowest is (cnt 0, contestant 2); 3 has one vote and survives.
        assert_eq!(m.active_contestants(), 2);
        assert!(m.vote_counts().iter().all(|(c, _)| *c != 2));
        // The board was rebuilt before the purge, then pruned.
        assert!(m.leaderboard().iter().all(|(_, c, _)| *c != 2));
        // A vote for the eliminated contestant is now rejected.
        m.apply_batch(&[vote(6000, 2)]);
        assert_eq!(m.rejected, 1);
    }

    #[test]
    fn tumbling_window_counts_each_in_order_report_once() {
        let mut w = TimeWindowModel::new(30_000, 30_000, 10_000);
        for tick in 1..=5i64 {
            for _ in 0..10 {
                w.arrive(tick * 30_000);
            }
            w.commit(tick * 30_000);
        }
        // The last tick's extent has not fired.
        assert_eq!(w.aggregated, 40);
        assert_eq!((w.dropped, w.merged), (0, 0));
    }

    #[test]
    fn late_arrivals_stage_merge_or_drop_by_watermark_distance() {
        let mut w = TimeWindowModel::new(30_000, 30_000, 10_000);
        w.arrive(30_000);
        w.commit(30_000);
        w.arrive(60_000);
        w.arrive(30_000); // one tick late, extent not fired yet: staged
        w.commit(60_000); // fires [30k, 60k) with both
        assert_eq!(w.aggregated, 2);
        w.arrive(55_000); // inside the active extent, 5 s behind: merged
        w.arrive(31_000); // inside it but 29 s behind: dropped
        w.arrive(1_000); // below it: dropped
        assert_eq!((w.merged, w.dropped), (1, 2));
    }
}
