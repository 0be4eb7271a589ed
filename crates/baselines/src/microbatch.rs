//! A Spark-Streaming-like micro-batch (D-Stream) engine.
//!
//! Faithful model properties (§5 of the paper, Zaharia et al. SOSP'13):
//!
//! * computation = deterministic transformations over small input
//!   batches defined by arrival interval;
//! * all state lives in **immutable** RDD-like collections: an update
//!   produces a *new* collection (copy-on-write) — there is no in-place
//!   mutation and **no index**, so point lookups are scans;
//! * every produced RDD appends to a lineage log; periodic checkpoints
//!   serialize state to bound lineage (we pay a real serialization
//!   cost);
//! * consistency is exactly-once per batch — not ACID: there is no
//!   isolation between state collections and no atomic multi-state
//!   commit.

use std::collections::HashMap;
use std::sync::Arc;

use sstore_common::codec::Encoder;
use sstore_common::{Error, Result, Tuple};

/// An immutable RDD-style collection of tuples.
pub type Rdd = Arc<Vec<Tuple>>;

/// One lineage entry: (output collection, operation tag, batch index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEntry {
    /// Name of the state collection produced.
    pub target: String,
    /// Operation label.
    pub op: String,
    /// Batch index that produced it.
    pub batch: u64,
}

/// Mutable view of the engine's state offered to a batch function.
pub struct StateOps<'a> {
    state: &'a mut HashMap<String, Rdd>,
    lineage: &'a mut Vec<LineageEntry>,
    batch: u64,
}

impl<'a> StateOps<'a> {
    /// Reads a state collection (empty if absent). O(1) — returns the
    /// shared immutable collection.
    pub fn read(&self, name: &str) -> Rdd {
        self.state.get(name).cloned().unwrap_or_else(|| Arc::new(Vec::new()))
    }

    /// Replaces a state collection with a newly built one, recording
    /// lineage. The *caller* pays the copy: this is the RDD immutability
    /// cost (every update rebuilds, no in-place mutation).
    pub fn replace(&mut self, name: &str, op: &str, data: Vec<Tuple>) {
        self.state.insert(name.to_owned(), Arc::new(data));
        self.lineage.push(LineageEntry { target: name.to_owned(), op: op.to_owned(), batch: self.batch });
    }

    /// Convenience: rebuild a collection by appending rows (still a full
    /// copy — RDDs are immutable).
    pub fn append(&mut self, name: &str, op: &str, rows: &[Tuple]) {
        let old = self.read(name);
        let mut data = Vec::with_capacity(old.len() + rows.len());
        data.extend_from_slice(&old);
        data.extend_from_slice(rows);
        self.replace(name, op, data);
    }

    /// Unindexed point lookup: scans the whole collection. This is the
    /// cost §4.6.3 blames for Spark's validation performance.
    pub fn scan_contains(&self, name: &str, col: usize, value: &sstore_common::Value) -> bool {
        self.read(name).iter().any(|t| t.get(col) == value)
    }

    /// Current batch index.
    pub fn batch(&self) -> u64 {
        self.batch
    }
}

/// A sliding window over whole intervals (Spark supports *time-based*
/// windows only: width and slide are counted in batches, §4.6.1).
#[derive(Debug, Clone)]
pub struct IntervalWindow {
    width: usize,
    slide: usize,
    buf: std::collections::VecDeque<Vec<Tuple>>,
    since_slide: usize,
}

impl IntervalWindow {
    /// A window `width` intervals wide sliding every `slide` intervals.
    pub fn new(width: usize, slide: usize) -> Result<Self> {
        if width == 0 || slide == 0 {
            return Err(Error::StreamViolation("interval window width/slide must be > 0".into()));
        }
        Ok(IntervalWindow { width, slide, buf: std::collections::VecDeque::new(), since_slide: 0 })
    }

    /// Pushes one interval's tuples; returns `true` when the window
    /// slides (contents should be re-aggregated).
    pub fn push(&mut self, interval: Vec<Tuple>) -> bool {
        self.buf.push_back(interval);
        while self.buf.len() > self.width {
            self.buf.pop_front();
        }
        self.since_slide += 1;
        if self.since_slide >= self.slide {
            self.since_slide = 0;
            true
        } else {
            false
        }
    }

    /// All tuples currently in the window.
    pub fn contents(&self) -> Vec<&Tuple> {
        self.buf.iter().flatten().collect()
    }

    /// Number of intervals buffered.
    pub fn len_intervals(&self) -> usize {
        self.buf.len()
    }
}

/// Engine statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DStreamStats {
    /// Batches processed.
    pub batches: u64,
    /// Tuples processed.
    pub tuples: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Bytes serialized by checkpoints.
    pub checkpoint_bytes: u64,
    /// Lineage entries recorded.
    pub lineage_len: u64,
}

/// The micro-batch engine.
pub struct DStreamEngine {
    state: HashMap<String, Rdd>,
    lineage: Vec<LineageEntry>,
    checkpoint_every: u64,
    stats: DStreamStats,
}

impl DStreamEngine {
    /// Creates an engine checkpointing every `checkpoint_every` batches
    /// (0 disables checkpointing — lineage grows without bound, as the
    /// paper notes for update-heavy workloads).
    pub fn new(checkpoint_every: u64) -> Self {
        DStreamEngine {
            state: HashMap::new(),
            lineage: Vec::new(),
            checkpoint_every,
            stats: DStreamStats::default(),
        }
    }

    /// Processes one interval batch with the user transformation.
    pub fn process_batch<F>(&mut self, input: &[Tuple], f: F) -> Result<()>
    where
        F: FnOnce(&[Tuple], &mut StateOps<'_>) -> Result<()>,
    {
        let batch = self.stats.batches;
        let mut ops = StateOps { state: &mut self.state, lineage: &mut self.lineage, batch };
        f(input, &mut ops)?;
        self.stats.batches += 1;
        self.stats.tuples += input.len() as u64;
        self.stats.lineage_len = self.lineage.len() as u64;
        if self.checkpoint_every > 0 && self.stats.batches.is_multiple_of(self.checkpoint_every) {
            self.checkpoint();
        }
        Ok(())
    }

    /// Serializes all state (the checkpoint cost) and truncates lineage.
    pub fn checkpoint(&mut self) {
        let mut e = Encoder::with_capacity(1024);
        let mut names: Vec<&String> = self.state.keys().collect();
        names.sort();
        for n in names {
            e.put_str(n);
            e.put_seq(self.state[n].iter(), Encoder::put_tuple);
        }
        self.stats.checkpoint_bytes += e.len() as u64;
        self.stats.checkpoints += 1;
        self.lineage.clear();
    }

    /// Reads a state collection.
    pub fn state(&self, name: &str) -> Rdd {
        self.state.get(name).cloned().unwrap_or_else(|| Arc::new(Vec::new()))
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DStreamStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{tuple, Value};

    #[test]
    fn state_is_copy_on_write() {
        let mut e = DStreamEngine::new(0);
        e.process_batch(&[tuple![1i64]], |input, ops| {
            ops.append("votes", "record", input);
            Ok(())
        })
        .unwrap();
        let v1 = e.state("votes");
        e.process_batch(&[tuple![2i64]], |input, ops| {
            ops.append("votes", "record", input);
            Ok(())
        })
        .unwrap();
        let v2 = e.state("votes");
        // The old RDD is untouched (immutability), the new is a copy.
        assert_eq!(v1.len(), 1);
        assert_eq!(v2.len(), 2);
        assert_eq!(e.stats().batches, 2);
        assert_eq!(e.stats().lineage_len, 2);
    }

    #[test]
    fn scan_contains_is_the_only_lookup() {
        let mut e = DStreamEngine::new(0);
        e.process_batch(&[tuple![5551000i64], tuple![5551001i64]], |input, ops| {
            ops.append("votes", "record", input);
            Ok(())
        })
        .unwrap();
        e.process_batch(&[], |_, ops| {
            assert!(ops.scan_contains("votes", 0, &Value::Int(5551000)));
            assert!(!ops.scan_contains("votes", 0, &Value::Int(1)));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn checkpoints_truncate_lineage_and_cost_bytes() {
        let mut e = DStreamEngine::new(2);
        for i in 0..6i64 {
            e.process_batch(&[tuple![i]], |input, ops| {
                ops.append("s", "op", input);
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(e.stats().checkpoints, 3);
        assert!(e.stats().checkpoint_bytes > 0);
        assert!(e.stats().lineage_len <= 2);
    }

    #[test]
    fn interval_window_slides_by_intervals() {
        let mut w = IntervalWindow::new(3, 1).unwrap();
        assert!(w.push(vec![tuple![1i64]]));
        assert!(w.push(vec![tuple![2i64], tuple![3i64]]));
        assert!(w.push(vec![tuple![4i64]]));
        assert_eq!(w.contents().len(), 4);
        w.push(vec![tuple![5i64]]);
        // Width 3: first interval fell out.
        assert_eq!(w.len_intervals(), 3);
        assert_eq!(w.contents().len(), 4); // 2,3 | 4 | 5
        assert!(IntervalWindow::new(0, 1).is_err());
    }

    #[test]
    fn slide_greater_than_one() {
        let mut w = IntervalWindow::new(4, 2).unwrap();
        assert!(!w.push(vec![tuple![1i64]]));
        assert!(w.push(vec![tuple![2i64]]));
        assert!(!w.push(vec![tuple![3i64]]));
        assert!(w.push(vec![tuple![4i64]]));
    }
}
