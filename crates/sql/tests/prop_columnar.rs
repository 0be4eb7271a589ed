//! Differential property tests for the vectorized SELECT path: every
//! randomly generated single-table query must produce *identical*
//! results through the columnar executor and the row-at-a-time
//! executor (same rows, same order — command-log replay depends on
//! bit-for-bit agreement), and must agree on whether the statement
//! errors. Tables include NULLs, empty tables, and all-NULL columns.

use proptest::prelude::*;
use sstore_common::{DataType, Schema, Tuple, Value};
use sstore_sql::batch::take_path_counters;
use sstore_sql::exec::run_select_rows_rowwise;
use sstore_sql::plan::BoundStatement;
use sstore_sql::vexec::{eligible, run_select_columnar};
use sstore_sql::Planner;
use sstore_storage::{Catalog, TableKind};

/// One generated row: `k` is dense and non-null, the rest nullable.
type Row = (Option<i64>, Option<i64>, Option<u8>);

fn setup(rows: &[Row]) -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        sstore_common::Column::new("k", DataType::Int),
        sstore_common::Column::nullable("a", DataType::Int),
        sstore_common::Column::nullable("b", DataType::Float),
        sstore_common::Column::nullable("s", DataType::Text),
    ])
    .unwrap();
    let t = c.create_table("p", TableKind::Base, schema).unwrap();
    for (i, (a, b, s)) in rows.iter().enumerate() {
        let texts = ["x", "y", "z"];
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            a.map_or(Value::Null, Value::Int),
            b.map_or(Value::Null, |v| Value::Float(v as f64 / 2.0)),
            s.map_or(Value::Null, |v| Value::Text(texts[v as usize % 3].to_owned())),
        ]))
        .unwrap();
    }
    c
}

/// WHERE clauses covering the typed fast paths (comparisons against
/// Int/Float/Text columns, BETWEEN, IS NULL, AND/OR/NOT Kleene
/// combinations) plus row-wise fallbacks (arithmetic on the column,
/// IN lists, cross-column compares).
fn where_clause() -> impl Strategy<Value = String> {
    (any::<u8>(), -10i64..10, -10i64..10).prop_map(|(shape, n1, n2)| match shape % 14 {
        0 => String::new(),
        1 => format!("WHERE a > {n1}"),
        2 => format!("WHERE a <= {n1}"),
        3 => format!("WHERE {n1} >= a"),
        4 => format!("WHERE b < {n1}.5"),
        5 => format!("WHERE s = 'y'"),
        6 => format!("WHERE a BETWEEN {} AND {}", n1.min(n2), n1.max(n2)),
        7 => format!("WHERE a NOT BETWEEN {n1} AND {n2}"),
        8 => "WHERE a IS NULL".into(),
        9 => format!("WHERE a IS NOT NULL AND b > {n1}"),
        10 => format!("WHERE a > {n1} OR s = 'x'"),
        11 => format!("WHERE NOT (a = {n1} OR b IS NULL)"),
        12 => format!("WHERE a IN ({n1}, {n2}, NULL)"),
        _ => format!("WHERE a + 1 > {n1}"), // row-wise fallback
    })
}

fn select_stmt() -> impl Strategy<Value = String> {
    (any::<u8>(), where_clause(), 0u64..12).prop_map(|(shape, w, lim)| match shape % 11 {
        3 | 8 if shape % 3 == 0 => pair_group_by(shape / 11, &w),
        0 => format!("SELECT k, a, b, s FROM p {w} ORDER BY k LIMIT {lim}"),
        1 => format!("SELECT COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a), AVG(b) FROM p {w}"),
        2 => format!("SELECT a, COUNT(*), SUM(a), MIN(b), MAX(s) FROM p {w} GROUP BY a"),
        3 => format!("SELECT a, s, COUNT(*) FROM p {w} GROUP BY a, s ORDER BY a, s"),
        4 => format!(
            "SELECT a, COUNT(DISTINCT s) FROM p {w} GROUP BY a HAVING COUNT(*) > 1"
        ),
        5 => format!("SELECT k, a FROM p {w} ORDER BY a DESC, k LIMIT {lim}"),
        // Phase-2 shapes: computed projections (Int/Float/mixed
        // arithmetic through the expression kernels, including a
        // row-wise fallback mix), multi-column GROUP BY with NULL keys
        // and computed aggregate arguments, GROUP BY over an
        // expression, and heavy-tie ORDER BY + LIMIT for the top-K
        // heap.
        6 => format!("SELECT k, a + 1, b * 2, a + b, -a FROM p {w} ORDER BY k LIMIT {lim}"),
        7 => format!("SELECT a * a + k, s FROM p {w}"),
        8 => format!("SELECT a, b, COUNT(*), SUM(a + 1), MIN(a * b) FROM p {w} GROUP BY a, b"),
        9 => format!("SELECT a % 3, COUNT(*), MAX(s) FROM p {w} GROUP BY a % 3"),
        _ => format!("SELECT k, s FROM p {w} ORDER BY s, b DESC LIMIT {lim}"),
    })
}

/// Two-key GROUP BY shapes: Int pairs (typed `(i64, i64)` keys) with a
/// NULL in the first key, the second, or both, and Int × Float pairs
/// (which stay on the `Value` path).
fn pair_group_by(shape: u8, w: &str) -> String {
    match shape % 5 {
        0 => format!("SELECT a, k % 4, COUNT(*), MIN(k), MAX(b) FROM p {w} GROUP BY a, k % 4"),
        1 => format!("SELECT k % 3, a, COUNT(*), SUM(k), MIN(s) FROM p {w} GROUP BY k % 3, a"),
        2 => format!("SELECT a + k % 2, a, COUNT(*) FROM p {w} GROUP BY a + k % 2, a"),
        3 => format!("SELECT b, a, COUNT(*), MAX(k) FROM p {w} GROUP BY b, a"),
        _ => format!("SELECT a, b, MIN(k) FROM p {w} GROUP BY a, b HAVING COUNT(*) > 1"),
    }
}

/// Runs one query through both executors and asserts they agree —
/// identical rows on success, errors together on failure. Returns the
/// number of columnar batches the vectorized run noted.
fn assert_both_agree(c: &Catalog, sql: &str) -> Result<u64, TestCaseError> {
    let stmt = Planner::new(c).plan_sql(sql).unwrap();
    let BoundStatement::Select(s) = &stmt else { panic!("not a select: {sql}") };
    prop_assert!(eligible(s), "generated query must be columnar-eligible: {}", sql);
    let row_result = run_select_rows_rowwise(c, s, &[]);
    let _ = take_path_counters();
    let col_result = run_select_columnar(c, s, &[]);
    let batches = take_path_counters().batches;
    match (row_result, col_result) {
        (Ok(r), Ok(v)) => prop_assert_eq!(r, v, "executors disagree on: {}", sql),
        (Err(_), Err(_)) => {}
        (r, v) => prop_assert!(
            false,
            "error disagreement on {}: row={:?} columnar={:?}",
            sql,
            r.is_ok(),
            v.is_ok()
        ),
    }
    Ok(batches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_matches_rowwise(
        rows in proptest::collection::vec(
            (
                proptest::option::of(-10i64..10),
                proptest::option::of(-20i64..20),
                proptest::option::of(any::<u8>()),
            ),
            0..60,
        ),
        sql in select_stmt(),
    ) {
        let c = setup(&rows);
        let batches = assert_both_agree(&c, &sql)?;
        if !rows.is_empty() {
            prop_assert!(batches >= 1, "non-empty scan must note batches: {}", sql);
        } else {
            prop_assert_eq!(batches, 0, "empty scan produces no batches: {}", sql);
        }
    }

    #[test]
    fn top_k_equals_full_sort_prefix(
        rows in proptest::collection::vec(
            (
                proptest::option::of(-10i64..10),
                proptest::option::of(-20i64..20),
                proptest::option::of(any::<u8>()),
            ),
            0..80,
        ),
        lim in 0u64..20,
        desc in any::<bool>(),
    ) {
        // ORDER BY + LIMIT takes the bounded-heap path; the same query
        // without LIMIT takes the full stable sort. The limited result
        // must be exactly the unlimited result's prefix — ties included
        // (s and a collide constantly), which pins the heap's
        // (key, input position) tie-break to stable-sort order.
        let c = setup(&rows);
        let dir = if desc { "DESC" } else { "ASC" };
        let base = format!("SELECT k, a, s FROM p ORDER BY s {dir}, a");
        let run = |sql: &str| {
            let stmt = Planner::new(&c).plan_sql(sql).unwrap();
            let BoundStatement::Select(s) = &stmt else { panic!("not a select") };
            run_select_rows_rowwise(&c, s, &[]).unwrap()
        };
        let full = run(&base);
        let limited = run(&format!("{base} LIMIT {lim}"));
        let want: Vec<_> = full.iter().take(lim as usize).cloned().collect();
        prop_assert_eq!(limited, want);
    }

    #[test]
    fn columnar_matches_rowwise_on_all_null_columns(
        len in 0usize..40,
        sql in select_stmt(),
    ) {
        // Every nullable column entirely NULL: null-bitmap handling in
        // filters and aggregates with no live value to hide behind.
        let rows: Vec<Row> = vec![(None, None, None); len];
        let c = setup(&rows);
        assert_both_agree(&c, &sql)?;
    }
}

#[test]
fn empty_table_every_shape() {
    let c = setup(&[]);
    for sql in [
        "SELECT k, a, b, s FROM p ORDER BY k",
        "SELECT COUNT(*), SUM(a), AVG(b), MIN(s) FROM p",
        "SELECT a, COUNT(*) FROM p GROUP BY a",
        "SELECT k FROM p WHERE a > 0 OR b IS NULL",
    ] {
        assert_both_agree(&c, sql).unwrap();
    }
}

/// Table lengths either side of a 64-row bitmap word and of a
/// 1 024-row batch.
const EDGE_LENS: [usize; 6] = [63, 64, 65, 1023, 1024, 1025];

/// The next draw of a 64-bit LCG, high bits.
fn draw(z: &mut u64) -> u64 {
    *z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *z >> 33
}

/// `len` rows whose NULLs come a word at a time: by 64-row word, `a`
/// and `b` are never NULL, always NULL, or NULL on about half the rows,
/// so a table holds no-NULL, all-NULL and mixed words side by side.
fn word_rows(len: usize, z: &mut u64) -> Vec<Row> {
    (0..len)
        .map(|i| {
            let mut null = |salt: usize| match (i / 64 + salt) % 3 {
                0 => false,
                1 => true,
                _ => draw(z).is_multiple_of(2),
            };
            let (na, nb) = (null(0), null(1));
            let a = (!na).then(|| (draw(z) % 21) as i64 - 10);
            let b = (!nb).then(|| (draw(z) % 41) as i64 - 20);
            (a, b, Some((draw(z) % 3) as u8))
        })
        .collect()
}

/// A WHERE predicate over `a` (Int) and `b` (Float), up to `depth`
/// levels of AND / OR / NOT over typed comparisons, BETWEEN, IS NULL
/// and a row-wise term.
fn nested_pred(z: &mut u64, depth: u32) -> String {
    let n = (draw(z) % 21) as i64 - 10;
    if depth == 0 || draw(z).is_multiple_of(4) {
        return match draw(z) % 9 {
            0 => format!("a > {n}"),
            1 => format!("b <= {n}.5"),
            2 => "a IS NULL".into(),
            3 => "b IS NOT NULL".into(),
            4 => format!("a BETWEEN {n} AND {}", n + 5),
            5 => format!("b NOT BETWEEN {n} AND {}", n + 3),
            6 => format!("a <> {n}"),
            7 => format!("b = {n}"),
            _ => format!("a + 1 = {n}"),
        };
    }
    let l = nested_pred(z, depth - 1);
    match draw(z) % 3 {
        0 => format!("({l} AND {})", nested_pred(z, depth - 1)),
        1 => format!("({l} OR {})", nested_pred(z, depth - 1)),
        _ => format!("NOT ({l})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn nested_predicates_agree_at_word_and_batch_edges(
        len_ix in 0usize..6,
        seed in any::<u64>(),
        shape in any::<u8>(),
    ) {
        let mut z = seed;
        let rows = word_rows(EDGE_LENS[len_ix], &mut z);
        let c = setup(&rows);
        let w = nested_pred(&mut z, 3);
        let sql = match shape % 4 {
            0 => format!("SELECT k FROM p WHERE {w}"),
            1 => format!("SELECT COUNT(*), COUNT(a), COUNT(b), SUM(a), MIN(b), MAX(a) FROM p WHERE {w}"),
            2 => format!("SELECT a, COUNT(*), SUM(b), MAX(b) FROM p WHERE {w} GROUP BY a"),
            _ => format!("SELECT k, a, b FROM p WHERE {w} ORDER BY b DESC, a, k LIMIT 9"),
        };
        assert_both_agree(&c, &sql)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_int_group_keys_match_rowwise_at_the_ends_of_i64(
        rows in proptest::collection::vec(
            (
                proptest::option::of(prop_oneof![-3i64..3, Just(i64::MIN), Just(i64::MAX)]),
                proptest::option::of(-4i64..4),
                proptest::option::of(any::<u8>()),
            ),
            0..60,
        ),
        shape in any::<u8>(),
        w in where_clause(),
    ) {
        // `a`'s extremes as keys, beside NULL and small keys; the shapes
        // sum `k`, never `a`, so no statement overflows.
        let c = setup(&rows);
        assert_both_agree(&c, &pair_group_by(shape, &w))?;
    }
}

/// Two Int keys over tables either side of a word and of a batch, with
/// `i64::MIN` / `i64::MAX` keys: groups come out in key order, NULL
/// first, whichever executor ran.
#[test]
fn two_int_group_keys_are_ordered_across_batches() {
    let mut z = 7;
    for len in EDGE_LENS {
        let mut rows = word_rows(len, &mut z);
        for (i, r) in rows.iter_mut().enumerate().filter(|(i, _)| i % 10 == 0) {
            r.0 = Some(if i % 20 == 0 { i64::MIN } else { i64::MAX });
        }
        let c = setup(&rows);
        for shape in 0..5 {
            assert_both_agree(&c, &pair_group_by(shape, "")).unwrap();
        }
        let out = must_succeed(&c, "SELECT a, k % 4, COUNT(*) FROM p GROUP BY a, k % 4");
        let keys: Vec<_> = out.iter().map(|t| (t.get(0).clone(), t.get(1).clone())).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{len}: {keys:?}");
        let nulls = keys.iter().take_while(|k| k.0 == Value::Null).count();
        assert_eq!(nulls > 0, rows.iter().any(|r| r.0.is_none()), "{len}");
        assert_eq!(keys[nulls].0, Value::Int(i64::MIN));
        assert_eq!(keys.last().unwrap().0, Value::Int(i64::MAX));
    }
}

/// Both executors answer `sql`, alike.
fn must_succeed(c: &Catalog, sql: &str) -> Vec<Tuple> {
    let stmt = Planner::new(c).plan_sql(sql).unwrap();
    let BoundStatement::Select(s) = &stmt else { panic!("not a select: {sql}") };
    let row = run_select_rows_rowwise(c, s, &[]).unwrap_or_else(|e| panic!("rowwise {sql}: {e}"));
    let col = run_select_columnar(c, s, &[]).unwrap_or_else(|e| panic!("columnar {sql}: {e}"));
    assert_eq!(row, col, "{sql}");
    col
}

/// Both executors fail `sql`.
fn must_fail(c: &Catalog, sql: &str) {
    let stmt = Planner::new(c).plan_sql(sql).unwrap();
    let BoundStatement::Select(s) = &stmt else { panic!("not a select: {sql}") };
    assert!(run_select_rows_rowwise(c, s, &[]).is_err(), "rowwise accepted {sql}");
    assert!(run_select_columnar(c, s, &[]).is_err(), "columnar accepted {sql}");
}

/// `a = i % 5 - 2` (so 0 on every fifth row), NULL on every seventh.
fn rows_with_zeros(len: usize) -> Catalog {
    let rows: Vec<Row> =
        (0..len as i64).map(|i| ((i % 7 != 3).then_some(i % 5 - 2), Some(i % 4), Some(0))).collect();
    setup(&rows)
}

/// AND's right side divides by `a`, and its left side is FALSE exactly
/// where `a` is 0: evaluating the right side there is a division by
/// zero, so this fails if AND runs its right side on FALSE rows.
#[test]
fn and_never_runs_its_right_side_where_the_left_is_false() {
    for len in EDGE_LENS {
        let c = rows_with_zeros(len);
        must_succeed(&c, "SELECT k FROM p WHERE a <> 0 AND 10 / a > 1");
        must_succeed(&c, "SELECT COUNT(*) FROM p WHERE NOT (a = 0 OR b IS NULL) AND 10 / a < 0");
        must_succeed(&c, "SELECT COUNT(*) FROM p WHERE (a > 0 OR a < 0) AND (10 / a = 5 OR 10 / a = -5)");
        // A row-independent right side runs only if some row is not
        // FALSE on the left, and then fails the statement.
        must_succeed(&c, "SELECT k FROM p WHERE k < 0 AND a > 1 / 0");
        must_fail(&c, "SELECT k FROM p WHERE k = 0 AND a > 1 / 0");
        must_fail(&c, "SELECT k FROM p WHERE a IS NOT NULL AND 10 / a > 1");
        must_fail(&c, "SELECT k FROM p WHERE a >= 0 AND 10 / a > 1");
    }
}

/// OR's right side divides by `a`, and its left side is TRUE exactly
/// where `a` is 0.
#[test]
fn or_never_runs_its_right_side_where_the_left_is_true() {
    for len in EDGE_LENS {
        let c = rows_with_zeros(len);
        must_succeed(&c, "SELECT k FROM p WHERE a = 0 OR 10 / a > 1");
        must_succeed(&c, "SELECT COUNT(*), SUM(a) FROM p WHERE NOT (a <> 0 AND b IS NOT NULL) OR 10 / a > 4");
        must_succeed(&c, "SELECT k FROM p WHERE k >= 0 OR a > 1 / 0");
        must_fail(&c, "SELECT k FROM p WHERE k > 0 OR a > 1 / 0");
        must_fail(&c, "SELECT k FROM p WHERE a = 1 OR 10 / a > 1");
    }
}
