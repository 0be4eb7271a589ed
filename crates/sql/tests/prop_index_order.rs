//! Differential tests for the ordered-index access path
//! (`Access::IndexOrder`): a SELECT planned to walk a B-tree index must
//! return exactly what the same statement returns with the index hidden
//! from the planner (`Access::FullScan`) — same rows, same order, and
//! an error exactly when the scan has one.
//!
//! Tables carry one or two B-tree indexes (unique or not, one or two
//! key columns) and are churned by random inserts, updates and deletes
//! first, so postings have been removed from the middle, keys have
//! moved, and slots have been reused. Key columns collide constantly
//! (ties), hold NULLs, and the float column holds NaN, both zeros and
//! `1.0` beside the int column's `1`.

use proptest::prelude::*;
use sstore_common::{Column, DataType, RowId, Schema, Tuple, Value};
use sstore_sql::exec::run_select_rows;
use sstore_sql::plan::{Access, BoundSelect, BoundStatement};
use sstore_sql::Planner;
use sstore_storage::index::IndexDef;
use sstore_storage::{Catalog, IndexKind, Table, TableKind};

const COLS: [&str; 4] = ["k", "a", "f", "s"];

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::nullable("a", DataType::Int),
        Column::nullable("f", DataType::Float),
        Column::nullable("s", DataType::Text),
    ])
    .unwrap()
}

/// A row from three small cell seeds; `k` is the caller's.
fn row(k: i64, cells: (u8, u8, u8)) -> Tuple {
    let floats = [f64::NAN, -0.0, 0.0, 1.0, 0.5, -1.5];
    let a = if cells.0 % 7 == 0 { Value::Null } else { Value::Int(cells.0 as i64 % 5 - 2) };
    let f = if cells.1 % 8 == 0 { Value::Null } else { Value::Float(floats[cells.1 as usize % 6]) };
    let s = if cells.2 % 5 == 0 { Value::Null } else { Value::Text(["", "x", "y"][cells.2 as usize % 3].into()) };
    Tuple::new(vec![Value::Int(k), a, f, s])
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, (u8, u8, u8)),
    UpdateNth(usize, i64, (u8, u8, u8)),
    DeleteNth(usize),
}

fn op() -> impl Strategy<Value = Op> {
    let cells = || (any::<u8>(), any::<u8>(), any::<u8>());
    prop_oneof![
        (0i64..40, cells()).prop_map(|(k, c)| Op::Insert(k, c)),
        (0i64..40, cells()).prop_map(|(k, c)| Op::Insert(k, c)),
        (0usize..64, 0i64..40, cells()).prop_map(|(n, k, c)| Op::UpdateNth(n, k, c)),
        (0usize..64).prop_map(Op::DeleteNth),
    ]
}

/// Applies `op`; one a unique index refuses leaves the table as it was.
fn apply(t: &mut Table, op: &Op) {
    let nth = |t: &Table, n: usize| -> Option<RowId> {
        let live: Vec<RowId> = t.scan_ordered().map(|(id, _)| id).collect();
        (!live.is_empty()).then(|| live[n % live.len()])
    };
    match op {
        Op::Insert(k, c) => drop(t.insert(row(*k, *c))),
        Op::UpdateNth(n, k, c) => {
            if let Some(id) = nth(t, *n) {
                drop(t.update(id, row(*k, *c)));
            }
        }
        Op::DeleteNth(n) => {
            if let Some(id) = nth(t, *n) {
                t.delete(id).unwrap();
            }
        }
    }
}

/// Index `i` from its seed: one or two key columns, unique or not; the
/// first is always a B-tree, later ones may be hash.
fn index_defs(seeds: &[(u8, Vec<usize>)]) -> Vec<IndexDef> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, (flavour, cols))| IndexDef {
            name: format!("ix{i}"),
            key_columns: cols.iter().map(|c| c % COLS.len()).collect(),
            kind: if i > 0 && flavour % 4 == 0 { IndexKind::Hash } else { IndexKind::BTree },
            unique: flavour % 3 == 0,
        })
        .collect()
}

/// A SELECT from its seeds. Most lead their ORDER BY with an index's key
/// columns and qualify for the walk; the rest miss the rule by one
/// clause (a WHERE, no LIMIT, an expression key or projection, an
/// unindexed first key) and must plan and run as before.
fn select(defs: &[IndexDef], seed: &[u8]) -> String {
    let def = &defs[seed[0] as usize % defs.len()];
    let dir = |b: u8| if b % 2 == 0 { "ASC" } else { "DESC" };
    let mut keys: Vec<String> = Vec::new();
    if seed[1] % 8 != 0 {
        // The index's columns, all or the first; one direction, or a
        // change after the first key.
        let take = if seed[1] % 3 == 0 { 1 } else { def.key_columns.len() };
        for (j, &c) in def.key_columns.iter().take(take).enumerate() {
            let d = if j > 0 && seed[2] % 3 == 0 { dir(seed[2] / 3 + 1) } else { dir(seed[2] / 3) };
            keys.push(format!("{} {d}", COLS[c]));
        }
    }
    // Trailing (or, with none so far, leading) keys from anywhere.
    for j in 0..(seed[3] % 3) as usize + usize::from(keys.is_empty()) {
        let b = seed[4].rotate_left(3 * j as u32);
        let key = if seed[3] % 16 == 15 { "a + 1".into() } else { COLS[b as usize % 4].to_owned() };
        keys.push(format!("{key} {}", dir(b / 4)));
    }
    let items = match seed[5] % 8 {
        0 | 1 => "*",
        2 | 3 => "k, a",
        4 => "'top', s, f",
        5 => "f, k, 7",
        6 => "k",
        _ => "a + 1, k", // can overflow nowhere here, but the planner cannot know
    };
    let filter = match seed[6] % 10 {
        0 => " WHERE a > 0",
        1 => " WHERE s = 'x' OR f IS NULL",
        _ => "",
    };
    let limit = match seed[7] % 12 {
        0 => String::new(),
        1 => " LIMIT 1000".into(),
        n => format!(" LIMIT {}", n - 2),
    };
    format!("SELECT {items} FROM t{filter} ORDER BY {}{limit}", keys.join(", "))
}

fn plan(c: &Catalog, sql: &str) -> BoundSelect {
    match Planner::new(c).plan_sql(sql).unwrap() {
        BoundStatement::Select(s) => s,
        other => panic!("{other:?}"),
    }
}

/// Runs `s` as planned and again with its access path forced to the
/// scan; the two must agree. Returns whether `s` walks an index.
fn assert_walk_equals_scan(c: &Catalog, s: &BoundSelect, sql: &str) -> Result<bool, TestCaseError> {
    let mut scan = s.clone();
    scan.from.access = Access::FullScan;
    match (run_select_rows(c, s, &[]), run_select_rows(c, &scan, &[])) {
        (Ok(walk), Ok(scan)) => {
            // `identical`, not `==`: the bits of every value, so 0.0
            // for -0.0 or one NaN for another would show.
            prop_assert_eq!(walk.len(), scan.len(), "{}", sql);
            for (w, sc) in walk.iter().zip(&scan) {
                prop_assert!(
                    w.values().iter().zip(sc.values()).all(|(a, b)| a.identical(b)),
                    "{}: walk {:?}, scan {:?}",
                    sql,
                    walk,
                    scan
                );
            }
        }
        (Err(_), Err(_)) => {}
        (w, sc) => prop_assert!(false, "{}: walk ok={}, scan ok={}", sql, w.is_ok(), sc.is_ok()),
    }
    Ok(matches!(s.from.access, Access::IndexOrder { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn index_walk_equals_scan(
        index_seeds in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(0usize..4, 1..3)),
            1..3,
        ),
        create_late in any::<bool>(),
        history in proptest::collection::vec(op(), 0..150),
        selects in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 8..9), 12..13),
    ) {
        let defs = index_defs(&index_seeds);
        let mut c = Catalog::new();
        let t = c.create_table("t", TableKind::Base, schema()).unwrap();
        // Indexes maintained through the churn, or backfilled after it
        // (from a run with tombstones in it by then); a unique one the
        // rows already violate is skipped.
        if !create_late {
            defs.iter().for_each(|d| t.create_index(d.clone()).unwrap());
        }
        history.iter().for_each(|op| apply(t, op));
        if create_late {
            defs.iter().for_each(|d| drop(t.create_index(d.clone())));
        }
        let defs: Vec<IndexDef> = t.index_defs().cloned().collect();
        if defs.is_empty() {
            return Ok(());
        }
        for seed in &selects {
            let sql = select(&defs, seed);
            assert_walk_equals_scan(&c, &plan(&c, &sql), &sql)?;
        }
    }
}

/// `vote_counts(contestant, cnt)` as the voter app declares it, `n`
/// contestants with the counts `cnt(i)`.
fn vote_counts(n: i64, cnt: impl Fn(i64) -> i64) -> Catalog {
    let mut c = Catalog::new();
    let t = c
        .create_table(
            "vote_counts",
            TableKind::Base,
            Schema::of(&[("contestant", DataType::Int), ("cnt", DataType::Int)]),
        )
        .unwrap();
    t.create_index(IndexDef {
        name: "by_cnt".into(),
        key_columns: vec![1, 0],
        kind: IndexKind::BTree,
        unique: false,
    })
    .unwrap();
    for i in 1..=n {
        t.insert(Tuple::new(vec![Value::Int(i), Value::Int(cnt(i))])).unwrap();
    }
    c
}

const LEADERBOARDS: [&str; 3] = [
    "SELECT 'top', contestant, cnt FROM vote_counts ORDER BY cnt DESC, contestant LIMIT 3",
    "SELECT 'bottom', contestant, cnt FROM vote_counts ORDER BY cnt ASC, contestant LIMIT 3",
    "SELECT contestant FROM vote_counts ORDER BY cnt ASC, contestant ASC LIMIT 1",
];

fn visits(c: &Catalog) -> u64 {
    c.table("vote_counts").unwrap().stats().ordered_visits()
}

#[test]
fn distinct_counts_visit_only_the_rows_returned() {
    let c = vote_counts(500, |i| i * 7919 % 4001);
    for sql in LEADERBOARDS {
        let s = plan(&c, sql);
        let before = visits(&c);
        assert!(assert_walk_equals_scan(&c, &s, sql).unwrap(), "{sql} must walk the index");
        assert!(visits(&c) - before <= s.limit.unwrap(), "{sql}: {} rows visited", visits(&c) - before);
    }
}

#[test]
fn all_rows_tied_is_one_run_and_still_the_scans_answer() {
    // The voter app's first vote: every contestant at zero.
    let c = vote_counts(500, |_| 0);
    // `cnt DESC, contestant ASC` shares one direction with the index
    // for its first key only, so its first run is every row; the other
    // two follow the index through both keys and stop after LIMIT.
    for (sql, want) in LEADERBOARDS.iter().zip([500, 3, 1]) {
        let before = visits(&c);
        assert!(assert_walk_equals_scan(&c, &plan(&c, sql), sql).unwrap());
        assert_eq!(visits(&c) - before, want, "{sql}");
    }
    // Tied on the whole ORDER BY: arrival (row-id) order decides, and
    // the run spans 500 index keys.
    let sql = "SELECT contestant FROM vote_counts ORDER BY cnt LIMIT 4";
    assert!(assert_walk_equals_scan(&c, &plan(&c, sql), sql).unwrap());
    assert_eq!(run_select_rows(&c, &plan(&c, sql), &[]).unwrap()[3], Tuple::new(vec![Value::Int(4)]));
}

#[test]
fn limit_zero_visits_nothing_and_limit_past_the_table_returns_it_all() {
    let c = vote_counts(50, |i| i % 7);
    let sql = "SELECT contestant FROM vote_counts ORDER BY cnt DESC LIMIT 0";
    let before = visits(&c);
    assert!(assert_walk_equals_scan(&c, &plan(&c, sql), sql).unwrap());
    assert_eq!(visits(&c), before);
    let sql = "SELECT contestant, cnt FROM vote_counts ORDER BY cnt DESC, contestant DESC LIMIT 99";
    let s = plan(&c, sql);
    assert!(assert_walk_equals_scan(&c, &s, sql).unwrap());
    assert_eq!(run_select_rows(&c, &s, &[]).unwrap().len(), 50);
}

#[test]
fn a_plan_outlives_its_index() {
    let mut c = vote_counts(50, |i| i % 7);
    let sql = LEADERBOARDS[0];
    let s = plan(&c, sql);
    let want = run_select_rows(&c, &s, &[]).unwrap();
    // Dropped: the statement scans.
    c.table_mut("vote_counts").unwrap().drop_index("by_cnt").unwrap();
    let before = visits(&c);
    assert_eq!(run_select_rows(&c, &s, &[]).unwrap(), want);
    assert_eq!(visits(&c), before);
    // Re-created under the same name over other columns, or as a hash
    // index: still the scan.
    for (key_columns, kind) in [(vec![0], IndexKind::BTree), (vec![1, 0], IndexKind::Hash)] {
        let t = c.table_mut("vote_counts").unwrap();
        t.create_index(IndexDef { name: "by_cnt".into(), key_columns, kind, unique: false }).unwrap();
        assert_eq!(run_select_rows(&c, &s, &[]).unwrap(), want);
        assert_eq!(visits(&c), before);
        c.table_mut("vote_counts").unwrap().drop_index("by_cnt").unwrap();
    }
}
