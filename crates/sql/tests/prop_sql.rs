//! Property tests: the SQL executor agrees with a naive in-memory
//! reference implementation on randomly generated tables and queries
//! (filters, aggregates, order/limit), and mutations round-trip through
//! undo.

use proptest::prelude::*;
use sstore_common::{DataType, Schema, Tuple, Value};
use sstore_sql::exec::{execute, undo_effect};
use sstore_sql::Planner;
use sstore_storage::{Catalog, TableKind};

fn setup(rows: &[(i64, i64)]) -> Catalog {
    let mut c = Catalog::new();
    let t = c
        .create_table("t", TableKind::Base, Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]))
        .unwrap();
    for (k, v) in rows {
        t.insert(Tuple::new(vec![Value::Int(*k), Value::Int(*v)])).unwrap();
    }
    c
}

fn run(c: &mut Catalog, sql: &str, params: &[Value]) -> sstore_sql::QueryResult {
    let stmt = Planner::new(c).plan_sql(sql).unwrap();
    let mut fx = Vec::new();
    execute(c, &stmt, params, &mut fx).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn where_filter_matches_reference(
        rows in proptest::collection::vec((-20i64..20, -100i64..100), 0..60),
        threshold in -20i64..20,
    ) {
        let mut c = setup(&rows);
        let got = run(&mut c, "SELECT k, v FROM t WHERE k > ? ORDER BY k, v", &[Value::Int(threshold)]);
        let mut expect: Vec<(i64, i64)> =
            rows.iter().copied().filter(|(k, _)| *k > threshold).collect();
        expect.sort_unstable();
        let got_pairs: Vec<(i64, i64)> = got
            .rows
            .iter()
            .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
            .collect();
        prop_assert_eq!(got_pairs, expect);
    }

    #[test]
    fn group_by_aggregates_match_reference(
        rows in proptest::collection::vec((0i64..8, -50i64..50), 1..80),
    ) {
        let mut c = setup(&rows);
        let got = run(
            &mut c,
            "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY k ORDER BY k",
            &[],
        );
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for (k, v) in &rows {
            groups.entry(*k).or_default().push(*v);
        }
        prop_assert_eq!(got.rows.len(), groups.len());
        for (row, (k, vs)) in got.rows.iter().zip(&groups) {
            prop_assert_eq!(row.get(0).as_int().unwrap(), *k);
            prop_assert_eq!(row.get(1).as_int().unwrap(), vs.len() as i64);
            prop_assert_eq!(row.get(2).as_int().unwrap(), vs.iter().sum::<i64>());
            prop_assert_eq!(row.get(3).as_int().unwrap(), *vs.iter().min().unwrap());
            prop_assert_eq!(row.get(4).as_int().unwrap(), *vs.iter().max().unwrap());
        }
    }

    #[test]
    fn limit_truncates_after_ordering(
        rows in proptest::collection::vec((0i64..100, 0i64..5), 0..50),
        limit in 0u64..10,
    ) {
        let mut c = setup(&rows);
        let got = run(&mut c, &format!("SELECT k FROM t ORDER BY k DESC LIMIT {limit}"), &[]);
        let mut ks: Vec<i64> = rows.iter().map(|(k, _)| *k).collect();
        ks.sort_unstable_by(|a, b| b.cmp(a));
        ks.truncate(limit as usize);
        let got: Vec<i64> = got.rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        prop_assert_eq!(got, ks);
    }

    #[test]
    fn mutations_undo_to_original_state(
        rows in proptest::collection::vec((0i64..10, -50i64..50), 1..40),
        delta in -5i64..5,
        cutoff in 0i64..10,
    ) {
        let mut c = setup(&rows);
        let state = |c: &Catalog| -> Vec<(u64, Tuple)> {
            c.table("t")
                .unwrap()
                .scan_ordered()
                .into_iter()
                .map(|(id, t)| (id.raw(), t.clone()))
                .collect()
        };
        let before = state(&c);

        // A random batch of mutations, then undo everything in reverse.
        let mut fx = Vec::new();
        for (sql, params) in [
            ("UPDATE t SET v = v + ? WHERE k < ?", vec![Value::Int(delta), Value::Int(cutoff)]),
            ("DELETE FROM t WHERE k >= ?", vec![Value::Int(cutoff)]),
            ("INSERT INTO t (k, v) VALUES (?, ?)", vec![Value::Int(99), Value::Int(delta)]),
        ] {
            let stmt = Planner::new(&c).plan_sql(sql).unwrap();
            execute(&mut c, &stmt, &params, &mut fx).unwrap();
        }
        for e in fx.into_iter().rev() {
            undo_effect(&mut c, e).unwrap();
        }
        // Logical state (rows under their original ids) is restored
        // exactly; the row-id *counter* legitimately stays advanced —
        // aborted ids are never reused.
        prop_assert_eq!(state(&c), before);
    }
}
