//! The single-threaded in-memory oracle.
//!
//! Input: the *folded* per-partition command logs (full history — the
//! harness merges the surviving log segments with records it captured
//! before each checkpoint's GC truncated them, so the input describes
//! every client command that survived, across all crash/recover
//! generations). Output: the
//! exact table state a correct engine must converge to after its final
//! recovery and drain, for **either** recovery mode.
//!
//! Why logs are the right oracle input: every client-origin command
//! (border batch, OLTP call, ad-hoc statement) is logged before its
//! commit acknowledges, logs lose only suffixes (torn tails), and a
//! checkpoint never outruns its log (the log is fsynced before the
//! image is written). So the durable logs are a complete and exact
//! record of which client commands survived — everything else
//! (interior stages, exchange deliveries, window slides) is derived
//! state the engine must reconstruct from them:
//!
//! * `raw`, `locout`, `tw`, `wsum` on partition `p` are pure functions
//!   of `p`'s border sub-batches in log order (the scheduler runs
//!   watermark slides before the next border, deterministically);
//! * `notes` on `p` follows `p`'s OLTP + ad-hoc records in log order;
//! * `xout` on `p` is the union of the exchange deliveries `p` itself
//!   logged (strong mode logs delivered rows; weak logs none) plus the
//!   re-derivable batches: those whose border record survived on
//!   *every* partition (an exchange merge needs one sub-batch per
//!   source) and that lie above `p`'s highest logged delivery (the
//!   exchange watermark dedups everything below it).
//!
//! The window model mirrors the engine's event-time semantics
//! (pane-aligned tumbling extents, staging, lateness
//! merge/drop, trivial-extent fast-forward) in ~80 independent lines.

use std::collections::BTreeMap;

use sstore_common::Value;
use sstore_engine::engine::hash_partition;
use sstore_engine::log::{LogKind, LogRecord};

use crate::workload::{GROUPS, TW_LATENESS, TW_SIZE, TW_SLIDE};

/// Expected final state of one partition.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PartitionState {
    /// `raw` rows, sorted.
    pub raw: Vec<(i64, i64, i64)>,
    /// `locout` rows, sorted.
    pub locout: Vec<(i64, i64)>,
    /// `xout` rows, sorted.
    pub xout: Vec<(i64, i64)>,
    /// `notes` rows, sorted.
    pub notes: Vec<(i64, i64)>,
    /// `wsum` rows (one per fired pane), sorted.
    pub wsum: Vec<Option<i64>>,
    /// Active window rows `(ts, v)`, sorted.
    pub tw: Vec<(i64, i64)>,
    /// Model count of beyond-lateness drops (diagnostics).
    pub late_dropped: u64,
}

/// The tumbling event-time window model (mirror of the engine's
/// `TimeWindowState`, single-threaded, ~independent reimplementation).
#[derive(Debug, Default)]
struct ModelWindow {
    staging: BTreeMap<i64, Vec<i64>>,
    active: BTreeMap<(i64, u64), i64>,
    arrival_no: u64,
    watermark: Option<i64>,
    next_end: Option<i64>,
    fired: bool,
    sums: Vec<Option<i64>>,
    late_dropped: u64,
}

fn first_end_for(ts: i64) -> i64 {
    ((ts - TW_SIZE).div_euclid(TW_SLIDE) + 1) * TW_SLIDE + TW_SIZE
}

impl ModelWindow {
    /// Offers one tuple, using the watermark as of the last slide pass
    /// (classification inside a transaction sees the pre-commit
    /// watermark).
    fn offer(&mut self, ts: i64, v: i64) {
        let stage = match self.next_end {
            None => true,
            Some(_) if !self.fired => true,
            Some(e) => ts >= e - TW_SIZE,
        };
        if stage {
            if !self.fired {
                let e = first_end_for(ts);
                self.next_end = Some(self.next_end.map_or(e, |cur| cur.min(e)));
            }
            self.staging.entry(ts).or_default().push(v);
            return;
        }
        let e = self.next_end.expect("checked above");
        let active_start = e - TW_SLIDE - TW_SIZE;
        let wm = self.watermark.unwrap_or(i64::MIN);
        if ts >= active_start && wm.saturating_sub(ts) <= TW_LATENESS {
            // Late merge into the active extent.
            let seq = self.arrival_no;
            self.arrival_no += 1;
            self.active.insert((ts, seq), v);
        } else {
            self.late_dropped += 1;
        }
    }

    /// Advances the watermark (a border commit) and immediately
    /// processes every pending slide — the scheduler guarantee is that
    /// slide transactions run before the next border on the partition.
    fn advance(&mut self, wm: i64) {
        self.watermark = Some(self.watermark.map_or(wm, |w| w.max(wm)));
        let w = self.watermark.expect("just set");
        if let Some(e) = self.next_end {
            if w >= e && self.staging.is_empty() && self.active.is_empty() {
                self.next_end = Some(first_end_for(w));
                self.fired = true;
            }
        }
        loop {
            let Some(e) = self.next_end else { return };
            if w < e {
                return;
            }
            let s = e - TW_SIZE;
            self.fired = true;
            let has_activation = self.staging.range(..e).next().is_some();
            let expire: Vec<(i64, u64)> =
                self.active.range(..(s, 0)).map(|(k, _)| *k).collect();
            if !has_activation && expire.is_empty() {
                // Trivial extent: advance silently, never past the
                // watermark's own pane.
                let jump = if self.active.is_empty() {
                    let cap = first_end_for(w);
                    match self.staging.keys().next() {
                        Some(&min_ts) => first_end_for(min_ts).min(cap),
                        None => cap,
                    }
                } else {
                    e + TW_SLIDE
                };
                self.next_end = Some(jump.max(e + TW_SLIDE));
                continue;
            }
            for k in expire {
                self.active.remove(&k);
            }
            let keys: Vec<i64> = self.staging.range(..e).map(|(k, _)| *k).collect();
            for k in keys {
                for v in self.staging.remove(&k).expect("key just seen") {
                    let seq = self.arrival_no;
                    self.arrival_no += 1;
                    self.active.insert((k, seq), v);
                }
            }
            self.next_end = Some(e + TW_SLIDE);
            // On-slide trigger: INSERT INTO wsum SELECT SUM(v) FROM tw.
            if self.active.is_empty() {
                self.sums.push(None);
            } else {
                self.sums.push(Some(self.active.values().sum()));
            }
        }
    }
}

fn tuple3(t: &sstore_common::Tuple) -> (i64, i64, i64) {
    (
        t.get(0).as_int().expect("int column"),
        t.get(1).as_int().expect("int column"),
        t.get(2).as_int().expect("int column"),
    )
}

fn tuple2(t: &sstore_common::Tuple) -> (i64, i64) {
    (t.get(0).as_int().expect("int column"), t.get(1).as_int().expect("int column"))
}

/// Computes the expected per-partition final state from the durable
/// per-partition logs.
pub fn expected_state(logs: &[Vec<LogRecord>]) -> Vec<PartitionState> {
    let n = logs.len();
    let mut out: Vec<PartitionState> = (0..n).map(|_| PartitionState::default()).collect();
    // (batch -> per-source-partition border rows) for exchange re-derivation.
    let mut borders: BTreeMap<u64, Vec<Option<Vec<(i64, i64, i64)>>>> = BTreeMap::new();
    // Per partition: logged exchange deliveries (batch, rows).
    let mut delivered: Vec<Vec<(u64, Vec<(i64, i64)>)>> = (0..n).map(|_| Vec::new()).collect();

    for (p, records) in logs.iter().enumerate() {
        let st = &mut out[p];
        let mut win = ModelWindow::default();
        let mut high: Option<i64> = None;
        for rec in records {
            match &rec.kind {
                LogKind::Border { stream, batch, rows } if stream == "cin" => {
                    let decoded: Vec<(i64, i64, i64)> = rows.iter().map(tuple3).collect();
                    borders.entry(batch.raw()).or_insert_with(|| vec![None; n])[p] =
                        Some(decoded.clone());
                    for &(k, v, ts) in &decoded {
                        st.raw.push((k, v, ts));
                        st.locout.push((k, v));
                        win.offer(ts, v);
                        high = Some(high.map_or(ts, |h: i64| h.max(ts)));
                    }
                    if !decoded.is_empty() {
                        win.advance(high.expect("rows seen"));
                    }
                }
                LogKind::Oltp { params } if rec.proc == "p_note" => {
                    st.notes.push((
                        params[0].as_int().expect("id"),
                        params[1].as_int().expect("v"),
                    ));
                }
                LogKind::AdHoc { sql, params } => {
                    if sql.trim_start().to_ascii_uppercase().starts_with("INSERT") {
                        st.notes.push((
                            params[0].as_int().expect("id"),
                            params[1].as_int().expect("v"),
                        ));
                    } else {
                        // UPDATE notes SET v = ? WHERE id = ?
                        let (v, id) = (
                            params[0].as_int().expect("v"),
                            params[1].as_int().expect("id"),
                        );
                        for row in st.notes.iter_mut().filter(|(i, _)| *i == id) {
                            row.1 = v;
                        }
                    }
                }
                LogKind::Exchange { stream, batch, rows } if stream == "xch" => {
                    delivered[p].push((batch.raw(), rows.iter().map(tuple2).collect()));
                }
                _ => {}
            }
        }
        st.wsum = win.sums.clone();
        st.tw = win.active.iter().map(|(&(ts, _), &v)| (ts, v)).collect();
        st.late_dropped = win.late_dropped;
    }

    // xout: logged deliveries + re-derivable batches (full border
    // coverage, above the partition's highest logged delivery).
    for p in 0..n {
        let max_delivered = delivered[p].iter().map(|(b, _)| *b).max().unwrap_or(0);
        for (_, rows) in &delivered[p] {
            out[p].xout.extend(rows.iter().copied());
        }
        for (&b, per_src) in &borders {
            if b <= max_delivered || per_src.iter().any(Option::is_none) {
                continue;
            }
            for rows in per_src.iter().flatten() {
                for &(_, v, _) in rows {
                    let g = v.rem_euclid(GROUPS);
                    if hash_partition(&Value::Int(g), n) == p {
                        out[p].xout.push((g, v));
                    }
                }
            }
        }
    }

    for st in &mut out {
        st.raw.sort_unstable();
        st.locout.sort_unstable();
        st.xout.sort_unstable();
        st.notes.sort_unstable();
        st.wsum.sort_unstable();
        st.tw.sort_unstable();
    }
    out
}
