//! The SELECT output edge's ordering contract (`src/edge.rs`), checked
//! through both executors on a table that spans three columnar batches.
//! The two share the edge, so agreement between them is necessary, not
//! sufficient: every test also states the rows it expects.

use sstore_common::{Column, DataType, Schema, Tuple, Value};
use sstore_sql::exec::run_select_rows_rowwise;
use sstore_sql::plan::{BoundStatement, Planner};
use sstore_sql::vexec::run_select_columnar;
use sstore_storage::{Catalog, TableKind};

const ROWS: i64 = 3000;
const POW53: i64 = 1 << 53;

/// `t(id, k, g, v, f, s)`, 3 000 rows in id order:
/// * `k` is 5 everywhere except rows 1019..=1030, where it is 1: a run of
///   tied least keys that straddles the first batch boundary (row 1024);
/// * `g = id % 7`, NULL on every 500th row;
/// * `v = 1 + id % 10`, but 0 on row 2999, so `10 / v` fails there alone;
/// * `f` cycles NaN, -NaN, +inf, -0.0, 0.0, 2^53, 2^53 + 2, NULL, -1.5;
/// * `s` cycles "a", "b", "", NULL.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let t = c
        .create_table(
            "t",
            TableKind::Base,
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("k", DataType::Int),
                Column::nullable("g", DataType::Int),
                Column::new("v", DataType::Int),
                Column::nullable("f", DataType::Float),
                Column::nullable("s", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
    let floats = [
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(POW53 as f64),
        Value::Float(POW53 as f64 + 2.0),
        Value::Null,
        Value::Float(-1.5),
    ];
    let texts = [Value::from("a"), Value::from("b"), Value::from(""), Value::Null];
    for id in 0..ROWS {
        let k = if (1019..=1030).contains(&id) { 1 } else { 5 };
        let g = if id % 500 == 499 { Value::Null } else { Value::Int(id % 7) };
        let v = if id == 2999 { 0 } else { 1 + id % 10 };
        t.insert(Tuple::new(vec![
            Value::Int(id),
            Value::Int(k),
            g,
            Value::Int(v),
            floats[id as usize % floats.len()].clone(),
            texts[id as usize % texts.len()].clone(),
        ]))
        .unwrap();
    }
    c
}

fn select(c: &Catalog, sql: &str) -> BoundStatement {
    Planner::new(c).plan_sql(sql).unwrap()
}

/// Runs `sql` through both executors, requires bit-identical rows, and
/// returns them.
fn both(c: &Catalog, sql: &str) -> Vec<Tuple> {
    let stmt = select(c, sql);
    let BoundStatement::Select(s) = &stmt else { panic!("not a select: {sql}") };
    let rowwise = run_select_rows_rowwise(c, s, &[]).unwrap();
    let columnar = run_select_columnar(c, s, &[]).unwrap();
    assert_eq!(rowwise.len(), columnar.len(), "row count differs on: {sql}");
    for (i, (r, v)) in rowwise.iter().zip(&columnar).enumerate() {
        assert!(
            r.values().iter().zip(v.values()).all(|(a, b)| a.identical(b)),
            "row {i} differs on {sql}: rowwise {r:?} columnar {v:?}"
        );
    }
    rowwise
}

fn ints(rows: &[Tuple], col: usize) -> Vec<i64> {
    rows.iter().map(|r| r.get(col).as_int().unwrap()).collect()
}

/// Both executors must fail.
fn both_fail(c: &Catalog, sql: &str) {
    let stmt = select(c, sql);
    let BoundStatement::Select(s) = &stmt else { panic!("not a select: {sql}") };
    assert!(run_select_rows_rowwise(c, s, &[]).is_err(), "row pipeline accepted: {sql}");
    assert!(run_select_columnar(c, s, &[]).is_err(), "columnar pipeline accepted: {sql}");
}

#[test]
fn tied_keys_keep_scan_order_across_a_batch_boundary() {
    let c = catalog();
    // Eight of the twelve tied rows: five from the first batch, three
    // from the second, which must not displace them.
    let rows = both(&c, "SELECT id FROM t ORDER BY k LIMIT 8");
    assert_eq!(ints(&rows, 0), (1019..1027).collect::<Vec<_>>());
    // All twelve, then the first rows of the scan on the other key.
    let rows = both(&c, "SELECT id FROM t ORDER BY k LIMIT 14");
    let mut want: Vec<i64> = (1019..=1030).collect();
    want.extend([0, 1]);
    assert_eq!(ints(&rows, 0), want);
    // Descending, the ties are the 2 988 other rows: scan order again,
    // and the survivors all come from the first batch.
    let rows = both(&c, "SELECT id FROM t ORDER BY k DESC LIMIT 5");
    assert_eq!(ints(&rows, 0), vec![0, 1, 2, 3, 4]);
    // A second key breaks the tie the other way round.
    let rows = both(&c, "SELECT id FROM t ORDER BY k, id DESC LIMIT 3");
    assert_eq!(ints(&rows, 0), vec![1030, 1029, 1028]);
    // No LIMIT: the full sort is the same order.
    let rows = both(&c, "SELECT id FROM t ORDER BY k");
    assert_eq!(rows.len(), ROWS as usize);
    assert_eq!(ints(&rows[..13], 0), (1019..=1030).chain([0]).collect::<Vec<_>>());
}

#[test]
fn limit_zero_and_limit_past_the_input() {
    let c = catalog();
    assert!(both(&c, "SELECT id FROM t ORDER BY k LIMIT 0").is_empty());
    assert!(both(&c, "SELECT id FROM t LIMIT 0").is_empty());
    assert!(both(&c, "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g LIMIT 0").is_empty());
    assert_eq!(both(&c, "SELECT id FROM t ORDER BY id DESC LIMIT 100000").len(), ROWS as usize);
    // Without ORDER BY the first arrivals are the answer.
    assert_eq!(
        ints(&both(&c, "SELECT id FROM t WHERE id >= 1020 LIMIT 6"), 0),
        vec![1020, 1021, 1022, 1023, 1024, 1025]
    );
    assert_eq!(both(&c, "SELECT g, COUNT(*) FROM t GROUP BY g LIMIT 100").len(), 8);
}

#[test]
fn nulls_sort_lowest_in_either_direction() {
    let c = catalog();
    // Ascending: the six NULL groups' rows first, in scan order.
    let rows = both(&c, "SELECT id, g FROM t ORDER BY g LIMIT 7");
    assert_eq!(ints(&rows[..6], 0), vec![499, 999, 1499, 1999, 2499, 2999]);
    assert!(rows[..6].iter().all(|r| r.get(1).is_null()));
    assert_eq!(rows[6].values(), &[Value::Int(0), Value::Int(0)]);
    // Descending: NULLs last.
    let rows = both(&c, "SELECT id, g FROM t ORDER BY g DESC");
    assert_eq!(rows[0].values(), &[Value::Int(6), Value::Int(6)]);
    assert_eq!(ints(&rows[ROWS as usize - 6..], 0), vec![499, 999, 1499, 1999, 2499, 2999]);
    // Text keys take the generic comparison: NULL, then "", "a", "b".
    let rows = both(&c, "SELECT s, id FROM t ORDER BY s, id DESC LIMIT 2");
    assert!(rows[0].get(0).is_null());
    assert_eq!(ints(&rows, 1), vec![2999, 2995]);
    let rows = both(&c, "SELECT s FROM t ORDER BY s DESC LIMIT 1");
    assert_eq!(rows[0].get(0), &Value::from("b"));
}

#[test]
fn float_keys_order_by_total_cmp() {
    let c = catalog();
    // One row of each float, ascending: NULL, -NaN, -1.5, -0.0, 0.0,
    // 2^53, 2^53 + 2, +inf, NaN.
    let rows = both(&c, "SELECT f FROM t WHERE id < 9 ORDER BY f");
    let want = [
        Value::Null,
        Value::Float(-f64::NAN),
        Value::Float(-1.5),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(POW53 as f64),
        Value::Float(POW53 as f64 + 2.0),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NAN),
    ];
    assert_eq!(rows.len(), want.len());
    for (r, w) in rows.iter().zip(&want) {
        assert!(r.get(0).identical(w), "got {:?}, want {w:?}", r.get(0));
    }
    // The same through the bounded heap, over every batch.
    let rows = both(&c, "SELECT f, id FROM t ORDER BY f DESC, id LIMIT 3");
    assert!(rows.iter().all(|r| r.get(0).identical(&Value::Float(f64::NAN))));
    assert_eq!(ints(&rows, 1), vec![0, 9, 18]);
    // Float group keys: -0.0 and 0.0 are distinct groups, each NaN sign
    // is one group.
    let rows = both(&c, "SELECT f, COUNT(*) FROM t GROUP BY f");
    assert_eq!(rows.len(), want.len());
    for (r, w) in rows.iter().zip(&want) {
        assert!(r.get(0).identical(w), "group {:?}, want {w:?}", r.get(0));
    }
    // An Int key past 2^53 orders exactly where a float would round.
    let rows =
        both(&c, "SELECT id + 9007199254740992 FROM t ORDER BY id + 9007199254740992 DESC LIMIT 2");
    assert_eq!(ints(&rows, 0), vec![POW53 + 2999, POW53 + 2998]);
}

#[test]
fn grouped_edge_cases() {
    let c = catalog();
    // HAVING that rejects every group.
    assert!(both(&c, "SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 100000").is_empty());
    // ORDER BY an aggregate that is not projected; NULL group included.
    let rows = both(&c, "SELECT g FROM t GROUP BY g ORDER BY COUNT(*), g DESC LIMIT 3");
    assert!(rows[0].get(0).is_null(), "the 6-row NULL group is the smallest");
    assert_eq!(ints(&rows[1..], 0), vec![5, 4], "427 rows each; the other groups have 428");
    // Text key, and a multi-column key with NULLs in both columns: the
    // generic interning path, emitted in ascending key order.
    let rows = both(&c, "SELECT s, COUNT(*), MIN(id), MAX(f) FROM t GROUP BY s");
    assert_eq!(rows.len(), 4);
    assert!(rows[0].get(0).is_null());
    assert_eq!(ints(&rows, 1), vec![750, 750, 750, 750]);
    assert_eq!(ints(&rows, 2), vec![3, 2, 0, 1]);
    let rows = both(
        &c,
        "SELECT s, g, COUNT(*) FROM t GROUP BY s, g ORDER BY COUNT(*) DESC, s DESC, g LIMIT 2",
    );
    let table = c.table("t").unwrap();
    let mut counts = std::collections::BTreeMap::<(Value, Value), i64>::new();
    for (_, row) in table.scan_ordered() {
        *counts.entry((row.get(5).clone(), row.get(2).clone())).or_default() += 1;
    }
    let mut want: Vec<_> = counts.into_iter().collect();
    want.sort_by(|((s1, g1), n1), ((s2, g2), n2)| n2.cmp(n1).then(s2.cmp(s1)).then(g1.cmp(g2)));
    for (r, ((s, g), n)) in rows.iter().zip(&want) {
        assert_eq!(r.values(), &[s.clone(), g.clone(), Value::Int(*n)]);
    }
    assert_eq!(rows.len(), 2);
    let all = both(&c, "SELECT s, g, SUM(v) FROM t GROUP BY s, g");
    assert_eq!(all.len(), want.len(), "28 (s, g) pairs and (NULL, NULL)");
    assert!(all[0].get(0).is_null() && all[0].get(1).is_null());
    // DISTINCT aggregates, per group and overall.
    let rows = both(&c, "SELECT g, COUNT(DISTINCT s), COUNT(DISTINCT v), SUM(DISTINCT k) FROM t WHERE g = 3 GROUP BY g");
    assert_eq!(rows[0].values(), &[Value::Int(3), Value::Int(3), Value::Int(10), Value::Int(6)]);
    let rows = both(&c, "SELECT COUNT(DISTINCT g), COUNT(DISTINCT f), AVG(DISTINCT k) FROM t");
    assert_eq!(rows[0].values(), &[Value::Int(7), Value::Int(8), Value::Float(3.0)]);
    // Implicit aggregation over no rows still yields its one group.
    let rows = both(&c, "SELECT COUNT(*), SUM(v), MIN(s) FROM t WHERE id < 0");
    assert_eq!(rows[0].values(), &[Value::Int(0), Value::Null, Value::Null]);
}

#[test]
fn a_failing_projection_fails_the_statement_even_if_its_row_is_not_returned() {
    let c = catalog();
    // Row 2999 (v = 0) is the last of the scan and nowhere near the top
    // of either order; the reference executor projects every row before
    // it sorts, so the statement fails.
    both_fail(&c, "SELECT 10 / v FROM t ORDER BY id LIMIT 1");
    both_fail(&c, "SELECT 10 / v FROM t LIMIT 1");
    both_fail(&c, "SELECT id FROM t ORDER BY 10 / v LIMIT 1");
    assert_eq!(
        ints(&both(&c, "SELECT 10 / v FROM t WHERE id < 2999 ORDER BY id LIMIT 2"), 0),
        vec![10, 5]
    );
    // Groups alike: g = 3 is fifth in key order (after NULL, 0, 1, 2).
    let sum3 = ints(&both(&c, "SELECT SUM(v) FROM t WHERE g = 3"), 0)[0];
    both_fail(
        &c,
        &format!("SELECT g, 10 / (SUM(v) - {sum3}) FROM t GROUP BY g ORDER BY g LIMIT 1"),
    );
    both_fail(&c, &format!("SELECT g FROM t GROUP BY g HAVING 10 / (SUM(v) - {sum3}) > 0 LIMIT 1"));
    // A projection that cannot fail is not evaluated for rows that are
    // dropped, and that changes nothing observable.
    assert_eq!(ints(&both(&c, "SELECT v FROM t ORDER BY id DESC LIMIT 1"), 0), vec![0]);
}
