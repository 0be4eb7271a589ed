//! The SELECT output edge: grouping, ordering and limiting, shared by the
//! row pipeline ([`crate::exec`]) and the columnar one ([`crate::vexec`]).
//!
//! Both executors end the same way. Scanned rows either fold into
//! [`Groups`] or are offered to an [`Edge`] one by one; finished groups
//! are offered to the same `Edge`; [`Edge::finish`] returns the result.
//! Nothing here holds a `Vec<Value>` per row or per group: group keys sit
//! in the interning map, accumulators in one typed vector per aggregate
//! ([`AccCol`]), sort keys of kept rows in one flat vector, and a
//! [`Tuple`] is built only for a row that is returned — or whose
//! projections could fail, which the statement must find out.
//!
//! **Ordering contract** (command-log replay re-executes these
//! statements, so every clause below is load-bearing):
//!
//! * Candidates arrive in scan order (row-id order; for groups, ascending
//!   group key under [`Value::cmp_total`], multi-column keys
//!   lexicographically) and take a sequence number on arrival; a row
//!   dropped unoffered because it orders past the bar ([`Edge::bar`])
//!   takes none, and could not have been kept. Rows may
//!   instead arrive in index order (`exec.rs`'s ordered walk), provided
//!   rows equal on the indexed prefix of the ORDER BY arrive contiguously
//!   and in row-id order. Every clause below survives that: two rows
//!   tied on the prefix — the only rows whose sequence numbers the next
//!   clause can reach — take them in the order a scan would give, and
//!   the rows a walk stops short of order after every row already held,
//!   so a scan would not have kept them either. A walk is planned only
//!   where the last clause has nothing that can fail to evaluate per
//!   row (bare-column keys, late projections, no WHERE). Groups may be
//!   offered from a maintained group index instead of a scan
//!   ([`Edge::offer_group`]), provided they arrive in ascending key order
//!   and the key type has one representation per equality class (Int,
//!   Text, Bool — not Float, where `1.0` and an Int `1` share a group).
//!   They may also arrive in count runs when `COUNT(*)` is the first
//!   ORDER BY key (`exec.rs`'s count walk), best run first and each run
//!   in ascending key order: groups tied on the count take their sequence
//!   numbers in the order a scan gives. The walk stops at a run boundary
//!   with the edge full — or at any group past a full edge when the keys
//!   after `COUNT(*)` are the leading group keys ascending, or none, so
//!   that a group loses every tie to the earlier groups of its run — and
//!   every group it skips orders after every group held: the index
//!   walk's argument, over groups, under the same rule on what may fail.
//! * The result is ordered by the ORDER BY keys, each under `cmp_total`
//!   in its own direction (so NULL is lowest: first ascending, last
//!   descending; NaNs order by `f64::total_cmp`; Int and Float compare
//!   exactly), then by sequence number. That is the order a stable sort
//!   produces, and `LIMIT k` keeps its first `k` rows. Without ORDER BY
//!   it is arrival order.
//! * A group is represented by the first key value seen for it
//!   (`Int(1)` then `Float(1.0)` stays `Int(1)`); aggregates accumulate
//!   in scan order within a group, so float sums and the row at which an
//!   integer SUM overflows do not depend on the executor.
//! * Per candidate, in this order: HAVING (groups only), projections that
//!   can fail, ORDER BY keys — for every candidate, kept or not, so the
//!   first error is the one a full materialisation would have hit.
//!   Projections that cannot fail (columns, literals, aggregate results)
//!   are evaluated only for the rows returned.

use std::cmp::Ordering;
use std::collections::HashSet;

use sstore_common::hash::FxHashMap;
use sstore_common::{Error, Result, Tuple, Value};

use crate::ast::{AggFunc, SortOrder};
use crate::expr::{AggSpec, BoundExpr, EvalCtx};
use crate::plan::BoundSelect;

/// A candidate's ORDER BY keys, comparable with a kept row's keys
/// without being built first.
pub(crate) trait SortKeys {
    /// `self.key(j).cmp_total(kept)`.
    fn cmp_key(&self, j: usize, kept: &Value) -> Ordering;
    /// The `j`-th key, built because the candidate is being kept.
    fn key(&self, j: usize) -> Value;
}

impl SortKeys for [Value] {
    fn cmp_key(&self, j: usize, kept: &Value) -> Ordering {
        self[j].cmp_total(kept)
    }
    fn key(&self, j: usize) -> Value {
        self[j].clone()
    }
}

/// What a kept candidate will return.
pub(crate) enum Out<'r> {
    /// A scanned row that outlives the edge; projected if it is still
    /// kept when the scan ends.
    Row(&'r [Value]),
    /// The output row itself.
    Built(Tuple),
}

struct Kept<'r> {
    seq: usize,
    /// Position of this candidate's sort keys in `Edge::keys`.
    slot: usize,
    out: Out<'r>,
}

/// ORDER BY + LIMIT over offered candidates: at most `LIMIT` of them are
/// held at any time, as a max-heap on (keys, sequence number) once full.
pub(crate) struct Edge<'r> {
    s: &'r BoundSelect,
    params: &'r [Value],
    limit: usize,
    /// No projection can fail, so output rows are built on demand.
    late: bool,
    /// Every ORDER BY key is a bare reference ([`RefKeys`]).
    ref_keys: bool,
    seq: usize,
    heaped: bool,
    kept: Vec<Kept<'r>>,
    /// Sort keys of the kept candidates, `order_by.len()` per slot.
    keys: Vec<Value>,
    /// Reused by [`Edge::offer_ctx`].
    key_buf: Vec<Value>,
}

fn directed(ord: Ordering, dir: SortOrder) -> Ordering {
    match dir {
        SortOrder::Asc => ord,
        SortOrder::Desc => ord.reverse(),
    }
}

/// The result order between two kept candidates.
fn cmp_kept(s: &BoundSelect, keys: &[Value], a: &Kept<'_>, b: &Kept<'_>) -> Ordering {
    let nk = s.order_by.len();
    let (ka, kb) = (&keys[a.slot * nk..][..nk], &keys[b.slot * nk..][..nk]);
    for ((va, vb), (_, dir)) in ka.iter().zip(kb).zip(&s.order_by) {
        let ord = directed(va.cmp_total(vb), *dir);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.seq.cmp(&b.seq)
}

/// True when no projection of `s` can fail — each is a literal, a column
/// of the row (group key, for a grouped statement) or an aggregate
/// result — so output rows need building only for the rows returned.
pub(crate) fn late_projections(s: &BoundSelect) -> bool {
    s.projections.iter().all(|p| is_ref(s, p))
}

/// True when every ORDER BY key of `s` is a bare reference ([`RefKeys`]):
/// reading them cannot fail.
pub(crate) fn ref_keys(s: &BoundSelect) -> bool {
    s.order_by.iter().all(|(e, _)| is_ref(s, e))
}

/// True when `e` only names a value the candidate already holds (or a
/// literal): reading it cannot fail and builds nothing.
fn is_ref(s: &BoundSelect, e: &BoundExpr) -> bool {
    let row_arity = if s.grouped { s.group_by.len() } else { s.input_arity };
    match e {
        BoundExpr::Literal(_) => true,
        BoundExpr::Column(c) => *c < row_arity,
        BoundExpr::AggRef(a) => *a < s.aggs.len(),
        _ => false,
    }
}

/// ORDER BY keys that are all [`is_ref`]: compared where they sit, cloned
/// only for a candidate that is kept.
struct RefKeys<'a, 'c>(&'a BoundSelect, &'a EvalCtx<'c>);

impl RefKeys<'_, '_> {
    fn at(&self, j: usize) -> &Value {
        match &self.0.order_by[j].0 {
            BoundExpr::Literal(v) => v,
            BoundExpr::Column(c) => &self.1.row[*c],
            BoundExpr::AggRef(a) => &self.1.aggs[*a],
            _ => unreachable!("checked by is_ref"),
        }
    }
}

impl SortKeys for RefKeys<'_, '_> {
    fn cmp_key(&self, j: usize, kept: &Value) -> Ordering {
        self.at(j).cmp_total(kept)
    }
    fn key(&self, j: usize) -> Value {
        self.at(j).clone()
    }
}

fn project(s: &BoundSelect, ctx: &EvalCtx<'_>) -> Result<Tuple> {
    Tuple::try_collect(s.projections.iter().map(|p| p.eval(ctx)))
}

impl<'r> Edge<'r> {
    pub(crate) fn new(s: &'r BoundSelect, params: &'r [Value]) -> Self {
        let late = late_projections(s);
        let limit = s.limit.map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX));
        Edge {
            s,
            params,
            limit,
            late,
            ref_keys: ref_keys(s),
            seq: 0,
            heaped: false,
            kept: Vec::new(),
            keys: Vec::new(),
            key_buf: Vec::new(),
        }
    }

    /// True when output rows are built from the scanned row at the end
    /// ([`Out::Row`]), so the caller need not evaluate projections.
    pub(crate) fn late(&self) -> bool {
        self.late
    }

    /// True once `LIMIT` candidates are held: from here on a candidate
    /// gets in only by ordering before one of them.
    pub(crate) fn is_full(&self) -> bool {
        self.kept.len() >= self.limit
    }

    /// Once full, the held candidates as a max-heap: the root is the
    /// last row of the current answer.
    fn heapify(&mut self) {
        if !self.heaped {
            self.heaped = true;
            for i in (0..self.kept.len() / 2).rev() {
                self.sift_down(i);
            }
        }
    }

    /// The bar: once `LIMIT` (> 0) candidates are held, the first ORDER
    /// BY key of the last of them, and that key's direction. A candidate
    /// whose first key orders strictly after the bar cannot be kept, and
    /// it never will be — the bar only moves forward as candidates are
    /// offered — so a caller may drop it unoffered; it takes no sequence
    /// number, which only orders the rows that are kept. A candidate tied
    /// with the bar must still be offered: its later keys or its arrival
    /// decide.
    pub(crate) fn bar(&mut self) -> Option<(&Value, SortOrder)> {
        let nk = self.s.order_by.len();
        if nk == 0 || self.limit == 0 || !self.is_full() {
            return None;
        }
        self.heapify();
        Some((&self.keys[self.kept[0].slot * nk], self.s.order_by[0].1))
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut top = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.kept.len()
                    && cmp_kept(self.s, &self.keys, &self.kept[child], &self.kept[top]).is_gt()
                {
                    top = child;
                }
            }
            if top == i {
                return;
            }
            self.kept.swap(i, top);
            i = top;
        }
    }

    /// Offers the next candidate in scan order. `out` runs only if the
    /// candidate is kept, and `keys.key(j)` likewise.
    #[inline]
    pub(crate) fn offer<K: SortKeys + ?Sized>(
        &mut self,
        keys: &K,
        out: impl FnOnce() -> Result<Out<'r>>,
    ) -> Result<()> {
        let seq = self.seq;
        self.seq += 1;
        let nk = self.s.order_by.len();
        if self.kept.len() < self.limit {
            self.keys.extend((0..nk).map(|j| keys.key(j)));
            self.kept.push(Kept { seq, slot: self.kept.len(), out: out()? });
            return Ok(());
        }
        // Full. Without ORDER BY the first arrivals are the answer.
        if nk == 0 || self.limit == 0 {
            return Ok(());
        }
        self.heapify();
        // The root is the last row of the current answer. On equal keys
        // the earlier arrival wins, and that is never the candidate.
        let slot = self.kept[0].slot;
        let mut ord = Ordering::Equal;
        for (j, (_, dir)) in self.s.order_by.iter().enumerate() {
            ord = directed(keys.cmp_key(j, &self.keys[slot * nk + j]), *dir);
            if ord != Ordering::Equal {
                break;
            }
        }
        if ord != Ordering::Less {
            return Ok(());
        }
        for j in 0..nk {
            self.keys[slot * nk + j] = keys.key(j);
        }
        self.kept[0] = Kept { seq, slot, out: out()? };
        self.sift_down(0);
        Ok(())
    }

    /// Offers the candidate `ctx` describes: a scanned row that outlives
    /// the edge (`row`), or a finished group (`None`).
    pub(crate) fn offer_ctx(&mut self, ctx: &EvalCtx<'_>, row: Option<&'r [Value]>) -> Result<()> {
        let s = self.s;
        let built = if self.late { None } else { Some(project(s, ctx)?) };
        let out = || match (built, row) {
            (Some(t), _) => Ok(Out::Built(t)),
            (None, Some(r)) => Ok(Out::Row(r)),
            (None, None) => project(s, ctx).map(Out::Built),
        };
        if self.ref_keys {
            return self.offer(&RefKeys(s, ctx), out);
        }
        let mut keys = std::mem::take(&mut self.key_buf);
        keys.clear();
        for (e, _) in &s.order_by {
            keys.push(e.eval(ctx)?);
        }
        self.offer(keys.as_slice(), out)?;
        self.key_buf = keys;
        Ok(())
    }

    /// Offers one finished group — its key and aggregate results — if it
    /// passes HAVING. Groups come in ascending key order, from
    /// [`Groups::finish`] or from a maintained group index (`exec.rs`).
    pub(crate) fn offer_group(&mut self, key: &[Value], aggs: &[Value]) -> Result<()> {
        let ctx = EvalCtx { row: key, params: self.params, aggs };
        match &self.s.having {
            Some(h) if !h.eval_predicate(&ctx)? => Ok(()),
            _ => self.offer_ctx(&ctx, None),
        }
    }

    /// The result rows, in order.
    pub(crate) fn finish(self) -> Result<Vec<Tuple>> {
        let Edge { s, params, keys, mut kept, .. } = self;
        if !s.order_by.is_empty() {
            // (keys, sequence number) is a total order, so an unstable
            // sort yields what a stable sort by keys would.
            kept.sort_unstable_by(|a, b| cmp_kept(s, &keys, a, b));
        }
        kept.into_iter()
            .map(|k| match k.out {
                Out::Built(t) => Ok(t),
                Out::Row(row) => project(s, &EvalCtx { row, params, aggs: &[] }),
            })
            .collect()
    }
}

/// Running SUM / AVG of one group.
#[derive(Debug, Clone, Default)]
pub(crate) struct SumAcc {
    /// Non-NULL inputs seen.
    pub(crate) n: u64,
    int: i64,
    float: f64,
    saw_float: bool,
}

impl SumAcc {
    #[inline]
    pub(crate) fn add_int(&mut self, v: i64) -> Result<()> {
        self.n += 1;
        self.int =
            self.int.checked_add(v).ok_or_else(|| Error::Eval("integer overflow in SUM".into()))?;
        self.float += v as f64;
        Ok(())
    }

    #[inline]
    pub(crate) fn add_float(&mut self, v: f64) {
        self.n += 1;
        self.saw_float = true;
        self.float += v;
    }
}

/// MIN (`want` = `Less`) or MAX (`Greater`): `v` replaces the current
/// extreme if it orders that way against it.
#[inline]
pub(crate) fn offer_extreme(best: &mut Option<Value>, v: Value, want: Ordering) {
    if best.as_ref().is_none_or(|b| v.cmp_total(b) == want) {
        *best = Some(v);
    }
}

/// Which way [`offer_extreme`] goes for `func`.
pub(crate) fn extreme_of(func: AggFunc) -> Ordering {
    if func == AggFunc::Min {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// One aggregate's accumulators, one entry per group slot, no wider than
/// the aggregate needs.
pub(crate) enum AccCol {
    /// COUNT(*) / COUNT(x): rows, or non-NULL inputs, seen.
    Count(Vec<u64>),
    /// SUM / AVG.
    Sum(Vec<SumAcc>),
    /// MIN / MAX: `None` until a non-NULL input arrives.
    Extreme(Vec<Option<Value>>),
    /// DISTINCT: the values already fed to the wrapped accumulators.
    Distinct(Vec<HashSet<Value>>, Box<AccCol>),
}

impl AccCol {
    fn new(spec: &AggSpec) -> AccCol {
        if spec.arg.is_none() {
            return AccCol::Count(Vec::new()); // COUNT(*)
        }
        let plain = match spec.func {
            AggFunc::Count => AccCol::Count(Vec::new()),
            AggFunc::Sum | AggFunc::Avg => AccCol::Sum(Vec::new()),
            AggFunc::Min | AggFunc::Max => AccCol::Extreme(Vec::new()),
        };
        if spec.distinct {
            AccCol::Distinct(Vec::new(), Box::new(plain))
        } else {
            plain
        }
    }

    fn reserve(&mut self, n: usize) {
        match self {
            AccCol::Count(c) => c.reserve(n),
            AccCol::Sum(s) => s.reserve(n),
            AccCol::Extreme(e) => e.reserve(n),
            AccCol::Distinct(seen, inner) => {
                seen.reserve(n);
                inner.reserve(n);
            }
        }
    }

    fn push_slot(&mut self) {
        match self {
            AccCol::Count(c) => c.push(0),
            AccCol::Sum(s) => s.push(SumAcc::default()),
            AccCol::Extreme(e) => e.push(None),
            AccCol::Distinct(seen, inner) => {
                seen.push(HashSet::new());
                inner.push_slot();
            }
        }
    }

    /// The COUNT accumulators; a bug in the caller otherwise.
    pub(crate) fn counts(&mut self) -> &mut [u64] {
        match self {
            AccCol::Count(c) => c,
            _ => unreachable!("aggregate is not a plain COUNT"),
        }
    }

    /// The SUM / AVG accumulators.
    pub(crate) fn sums(&mut self) -> &mut [SumAcc] {
        match self {
            AccCol::Sum(s) => s,
            _ => unreachable!("aggregate is not a plain SUM or AVG"),
        }
    }

    /// The MIN / MAX accumulators.
    pub(crate) fn extremes(&mut self) -> &mut [Option<Value>] {
        match self {
            AccCol::Extreme(e) => e,
            _ => unreachable!("aggregate is not a plain MIN or MAX"),
        }
    }

    /// Accumulates one evaluated, non-NULL argument value.
    pub(crate) fn feed(&mut self, func: AggFunc, slot: usize, v: Value) -> Result<()> {
        match self {
            AccCol::Count(c) => c[slot] += 1,
            AccCol::Sum(s) => match v {
                Value::Int(i) => s[slot].add_int(i)?,
                Value::Float(f) => s[slot].add_float(f),
                other => return Err(Error::Eval(format!("SUM/AVG over non-numeric {other}"))),
            },
            AccCol::Extreme(e) => offer_extreme(&mut e[slot], v, extreme_of(func)),
            AccCol::Distinct(seen, inner) => {
                if seen[slot].insert(v.clone()) {
                    inner.feed(func, slot, v)?;
                }
            }
        }
        Ok(())
    }

    /// The aggregate's result for `slot` (taken, not copied). SUM, AVG,
    /// MIN and MAX over no non-NULL input are NULL; COUNT is 0.
    fn finish(&mut self, func: AggFunc, slot: usize) -> Value {
        match self {
            AccCol::Count(c) => Value::Int(c[slot] as i64),
            AccCol::Sum(s) => {
                let a = &s[slot];
                // `Value::float`: the running sum's NaN payload depends
                // on codegen once two NaNs meet.
                if a.n == 0 {
                    Value::Null
                } else if func == AggFunc::Avg {
                    Value::float(a.float / a.n as f64)
                } else if a.saw_float {
                    Value::float(a.float)
                } else {
                    Value::Int(a.int)
                }
            }
            AccCol::Extreme(e) => e[slot].take().unwrap_or(Value::Null),
            AccCol::Distinct(_, inner) => inner.finish(func, slot),
        }
    }
}

/// Int group keys in `[0, DIRECT_KEYS)` find their slot by indexing a
/// table instead of hashing. A constant: small non-negative keys (ids,
/// buckets, segments) are what the workloads group by.
const DIRECT_KEYS: usize = 1024;

/// GROUP BY state: keys interned to dense slots, accumulators indexed by
/// slot. A statement uses one interning map throughout — `direct` and
/// `ints` when its single key is Int-typed (the columnar executor's typed
/// key view), `pairs` and `null_pairs` when it has two Int-typed keys,
/// `any` otherwise; implicit aggregation (no GROUP BY) has no key and
/// owns slot 0 from the start, so it yields a group over zero rows too.
/// Slots are numbered in first-seen order whichever map holds the key.
pub(crate) struct Groups<'s> {
    s: &'s BoundSelect,
    /// One entry per aggregate; the columnar executor's typed loops
    /// write these directly.
    pub(crate) accs: Vec<AccCol>,
    slots: usize,
    /// Room made for this many groups when the first one appears.
    reserve: usize,
    /// Slot of Int key `k` in `[0, DIRECT_KEYS)` at index `k`, `u32::MAX`
    /// if unseen; empty until the first such key.
    direct: Vec<u32>,
    /// Slots of the other Int keys.
    ints: FxHashMap<i64, u32>,
    null_slot: Option<u32>,
    /// Slots of two-Int keys with no NULL, and of those with one.
    pairs: FxHashMap<(i64, i64), u32>,
    null_pairs: FxHashMap<(Option<i64>, Option<i64>), u32>,
    /// The map owns each group's first-seen key. [`Value`]'s `Hash`
    /// agrees with its `cmp_total`-based `Eq`, so this merges exactly
    /// the keys that compare equal.
    any: FxHashMap<Vec<Value>, u32>,
}

impl<'s> Groups<'s> {
    /// `rows` bounds the input, hence the groups. Room for that many, up
    /// to 64, is made when the first group appears: it spares a 100-row
    /// window's statement five regrowths (1 µs of 8), while a table sized
    /// for 1 000 rows that meets 60 groups is sparse enough to miss the
    /// cache on every probe (a 1 000-row extent scan ran 10 % slower).
    pub(crate) fn new(s: &'s BoundSelect, rows: usize) -> Self {
        let mut g = Groups {
            s,
            accs: s.aggs.iter().map(AccCol::new).collect(),
            slots: 0,
            reserve: if s.group_by.is_empty() { 1 } else { rows.min(64) },
            direct: Vec::new(),
            ints: FxHashMap::default(),
            null_slot: None,
            pairs: FxHashMap::default(),
            null_pairs: FxHashMap::default(),
            any: FxHashMap::default(),
        };
        if s.group_by.is_empty() {
            g.new_slot();
        }
        g
    }

    fn new_slot(&mut self) -> u32 {
        if self.slots == 0 {
            let n = self.reserve;
            self.accs.iter_mut().for_each(|a| a.reserve(n));
        }
        self.accs.iter_mut().for_each(AccCol::push_slot);
        self.slots += 1;
        (self.slots - 1) as u32
    }

    /// The slot of a key row, interned on first sight.
    pub(crate) fn slot_of(&mut self, key: &[Value]) -> usize {
        if key.is_empty() {
            return 0;
        }
        if let Some(&slot) = self.any.get(key) {
            return slot as usize;
        }
        if self.any.is_empty() {
            self.any.reserve(self.reserve);
        }
        let slot = self.new_slot();
        self.any.insert(key.to_vec(), slot);
        slot as usize
    }

    /// [`Groups::slot_of`] for a single Int-typed key (`None` = NULL).
    #[inline]
    pub(crate) fn slot_of_int(&mut self, key: Option<i64>) -> usize {
        if let Some(k) = key.and_then(|k| usize::try_from(k).ok()).filter(|&k| k < DIRECT_KEYS) {
            if self.direct.is_empty() {
                self.direct = vec![u32::MAX; DIRECT_KEYS];
            }
            if self.direct[k] == u32::MAX {
                self.direct[k] = self.new_slot();
            }
            return self.direct[k] as usize;
        }
        let known = match key {
            Some(k) => self.ints.get(&k).copied(),
            None => self.null_slot,
        };
        if let Some(slot) = known {
            return slot as usize;
        }
        let slot = self.new_slot();
        match key {
            Some(k) => {
                if self.ints.is_empty() {
                    self.ints.reserve(self.reserve);
                }
                self.ints.insert(k, slot);
            }
            None => self.null_slot = Some(slot),
        }
        slot as usize
    }

    /// [`Groups::slot_of`] for two Int-typed keys (`None` = NULL).
    #[inline]
    pub(crate) fn slot_of_pair(&mut self, key: (Option<i64>, Option<i64>)) -> usize {
        let known = match key {
            (Some(a), Some(b)) => self.pairs.get(&(a, b)),
            _ => self.null_pairs.get(&key),
        };
        if let Some(&slot) = known {
            return slot as usize;
        }
        if self.pairs.is_empty() {
            self.pairs.reserve(self.reserve);
        }
        let slot = self.new_slot();
        match key {
            (Some(a), Some(b)) => self.pairs.insert((a, b), slot),
            _ => self.null_pairs.insert(key, slot),
        };
        slot as usize
    }

    /// Accumulates one input row into `slot`: per aggregate, evaluate
    /// the argument, skip NULL, feed.
    pub(crate) fn feed_row(&mut self, slot: usize, ctx: &EvalCtx<'_>) -> Result<()> {
        for (acc, spec) in self.accs.iter_mut().zip(&self.s.aggs) {
            match &spec.arg {
                None => acc.counts()[slot] += 1,
                Some(arg) => {
                    let v = arg.eval(ctx)?;
                    if !v.is_null() {
                        acc.feed(spec.func, slot, v)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Offers every group that passes HAVING to `edge`, in ascending key
    /// order, each evaluated against one reused aggregate-value buffer.
    pub(crate) fn finish(mut self, edge: &mut Edge<'_>) -> Result<()> {
        let single = !(self.direct.is_empty() && self.ints.is_empty() && self.null_slot.is_none());
        let pair = !(self.pairs.is_empty() && self.null_pairs.is_empty());
        assert!(
            u8::from(single) + u8::from(pair) + u8::from(!self.any.is_empty()) <= 1,
            "group-key kernel changed output kind across batches"
        );
        let s = self.s;
        let mut aggs = Vec::with_capacity(s.aggs.len());
        let mut emit = |key: &[Value], slot: u32| -> Result<()> {
            aggs.clear();
            aggs.extend(
                self.accs.iter_mut().zip(&s.aggs).map(|(a, sp)| a.finish(sp.func, slot as usize)),
            );
            edge.offer_group(key, &aggs)
        };
        if s.group_by.is_empty() {
            return emit(&[], 0);
        }
        if let Some(slot) = self.null_slot {
            emit(&[Value::Null], slot)?;
        }
        let direct = self.direct.iter().enumerate().filter(|(_, s)| **s != u32::MAX);
        let mut ints: Vec<(i64, u32)> =
            self.ints.into_iter().chain(direct.map(|(k, s)| (k as i64, *s))).collect();
        ints.sort_unstable();
        for (k, slot) in ints {
            emit(&[Value::Int(k)], slot)?;
        }
        // Tuple order is `cmp_total` order: NULL (`None`) sorts first.
        let pairs = self.pairs.into_iter().map(|((a, b), slot)| ((Some(a), Some(b)), slot));
        let mut pairs: Vec<_> = pairs.chain(self.null_pairs).collect();
        pairs.sort_unstable();
        for ((a, b), slot) in pairs {
            emit(&[a.map_or(Value::Null, Value::Int), b.map_or(Value::Null, Value::Int)], slot)?;
        }
        // Interned keys are distinct under `cmp_total`, so the sort has
        // no ties to break.
        let mut any: Vec<(Vec<Value>, u32)> = self.any.into_iter().collect();
        any.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (key, slot) in &any {
            emit(key, *slot)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BoundStatement, Planner};
    use sstore_common::{DataType, Schema};
    use sstore_storage::{Catalog, TableKind};

    /// A bound SELECT over `t(x, y)`; the tests drive the edge by hand
    /// with key values no typed column could hold side by side.
    fn bound(sql: &str) -> BoundSelect {
        let mut c = Catalog::new();
        c.create_table(
            "t",
            TableKind::Base,
            Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]),
        )
        .unwrap();
        match Planner::new(&c).plan_sql(sql).unwrap() {
            BoundStatement::Select(s) => s,
            other => panic!("{other:?}"),
        }
    }

    const POW53: i64 = 1 << 53;

    #[test]
    fn mixed_int_and_float_sort_keys_compare_exactly_at_2_pow_53() {
        let s = bound("SELECT y FROM t ORDER BY x LIMIT 3");
        let keys = [
            Value::Float(POW53 as f64),
            Value::Int(POW53 + 1), // rounds to 2^53 as a float; greater as an integer
            Value::Int(-POW53 - 1),
            Value::Float(-(POW53 as f64)),
            Value::Int(POW53), // equal to the first key: the earlier arrival wins
            Value::Null,
        ];
        let rows: Vec<[Value; 2]> =
            keys.iter().enumerate().map(|(i, k)| [k.clone(), Value::Int(i as i64)]).collect();
        let mut edge = Edge::new(&s, &[]);
        for row in &rows {
            edge.offer_ctx(&EvalCtx { row, params: &[], aggs: &[] }, Some(row)).unwrap();
        }
        let out: Vec<i64> =
            edge.finish().unwrap().iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(out, vec![5, 2, 3], "NULL, -2^53 - 1, -2^53");

        let s = bound("SELECT y FROM t ORDER BY x DESC LIMIT 3");
        let mut edge = Edge::new(&s, &[]);
        for row in &rows {
            edge.offer_ctx(&EvalCtx { row, params: &[], aggs: &[] }, Some(row)).unwrap();
        }
        let out: Vec<i64> =
            edge.finish().unwrap().iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(out, vec![1, 0, 4], "2^53 + 1, then Float(2^53) before the later Int(2^53)");
    }

    #[test]
    fn a_group_is_represented_by_its_first_seen_key() {
        let s = bound("SELECT x, COUNT(*), SUM(y) FROM t GROUP BY x");
        let mut groups = Groups::new(&s, 8);
        for (key, y) in [
            (Value::Int(1), 10),
            (Value::Float(1.0), 20),
            (Value::Float(POW53 as f64), 1),
            (Value::Int(POW53), 2),
            (Value::Int(POW53 + 1), 4),
            (Value::Null, 8),
        ] {
            let slot = groups.slot_of(std::slice::from_ref(&key));
            let row = [key, Value::Int(y)];
            groups.feed_row(slot, &EvalCtx { row: &row, params: &[], aggs: &[] }).unwrap();
        }
        let mut edge = Edge::new(&s, &[]);
        groups.finish(&mut edge).unwrap();
        let out = edge.finish().unwrap();
        let want = [
            [Value::Null, Value::Int(1), Value::Int(8)],
            [Value::Int(1), Value::Int(2), Value::Int(30)],
            [Value::Float(POW53 as f64), Value::Int(2), Value::Int(3)],
            [Value::Int(POW53 + 1), Value::Int(1), Value::Int(4)],
        ];
        assert_eq!(out.len(), want.len());
        for (got, want) in out.iter().zip(&want) {
            assert!(
                got.values().iter().zip(want).all(|(a, b)| a.identical(b)),
                "got {got:?}, want {want:?}"
            );
        }
    }
}
