//! Differential tests for the index point-lookup access path
//! (`Access::IndexEq`): a SELECT, UPDATE or DELETE planned to probe an
//! index must do exactly what the same statement does with its access
//! path forced to `Access::FullScan` — the same rows in the same order,
//! the same effects in the same order, the same table afterwards, and an
//! error exactly when the scan has one (compared by wire code).
//!
//! Tables carry one to three indexes — hash or B-tree, unique or not,
//! over one or two columns — and are churned first, so postings have
//! been removed from the middle and keys have moved. Key columns collide
//! constantly (duplicate keys), hold NULLs, and the float column holds
//! NaN, both zeros and `1.0` beside the int columns' `1`. Keys come from
//! parameters (NULL, Int, Float, Text), literals, or an expression that
//! errors when evaluated (the probe then degrades to the scan).
//!
//! Residual conjuncts here cannot fail. One that can is where the two
//! paths differ by design: a probe never evaluates the WHERE on a row
//! whose key does not match, so an error such a row would raise does not
//! fire (the dialect `sqlfuzz`'s reference reproduces).

use proptest::prelude::*;
use sstore_common::{Column, DataType, RowId, Schema, Tuple, Value};
use sstore_sql::exec::execute;
use sstore_sql::plan::{Access, BoundStatement};
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

const FLOATS: [f64; 5] = [f64::NAN, -0.0, 0.0, 1.0, 0.5];

/// A row from four small cell seeds.
fn row(cells: (u8, u8, u8, u8)) -> Tuple {
    let k = Value::Int(cells.0 as i64 % 6);
    let a = if cells.1.is_multiple_of(6) { Value::Null } else { Value::Int(cells.1 as i64 % 4 - 1) };
    let f = if cells.2.is_multiple_of(7) { Value::Null } else { Value::Float(FLOATS[cells.2 as usize % 5]) };
    let s = if cells.3.is_multiple_of(5) { Value::Null } else { Value::Text(["", "x", "y"][cells.3 as usize % 3].into()) };
    Tuple::new(vec![k, a, f, s])
}

#[derive(Debug, Clone)]
enum Op {
    Insert((u8, u8, u8, u8)),
    UpdateNth(usize, (u8, u8, u8, u8)),
    DeleteNth(usize),
}

fn op() -> impl Strategy<Value = Op> {
    let cells = || (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>());
    prop_oneof![
        cells().prop_map(Op::Insert),
        cells().prop_map(Op::Insert),
        (0usize..64, cells()).prop_map(|(n, c)| Op::UpdateNth(n, c)),
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
        Op::Insert(c) => drop(t.insert(row(*c))),
        Op::UpdateNth(n, c) => {
            if let Some(id) = nth(t, *n) {
                drop(t.update(id, row(*c)));
            }
        }
        Op::DeleteNth(n) => {
            if let Some(id) = nth(t, *n) {
                t.delete(id).unwrap();
            }
        }
    }
}

fn index_defs(seeds: &[(u8, Vec<usize>)]) -> Vec<IndexDef> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, (flavour, cols))| {
            let mut key_columns: Vec<usize> = cols.iter().map(|c| c % COLS.len()).collect();
            key_columns.dedup();
            IndexDef {
                name: format!("ix{i}"),
                key_columns,
                kind: if flavour % 2 == 0 { IndexKind::Hash } else { IndexKind::BTree },
                unique: flavour % 5 == 0,
            }
        })
        .collect()
}

/// The parameter pool: NULL, Ints, Floats equal and unequal to them
/// (`1.0` against an Int `1`, both zeros, NaN), and Text.
fn param(b: u8) -> Value {
    match b % 10 {
        0 => Value::Null,
        1 => Value::Int(-1),
        2 => Value::Int(0),
        3 => Value::Int(1),
        4 => Value::Int(2),
        5 => Value::Float(1.0),
        6 => Value::Float(-0.0),
        7 => Value::Float(f64::NAN),
        8 => Value::Float(0.5),
        _ => Value::Text("x".into()),
    }
}

/// A statement from its seeds, with an equality on every key column of
/// the index `seed[1]` picks. Returns its SQL and whether the planner
/// must choose `IndexEq` for it.
fn statement(defs: &[IndexDef], seed: &[u8]) -> (String, bool) {
    let def = &defs[seed[1] as usize % defs.len()];
    let mut probeable = true;
    let mut conjuncts: Vec<String> = def
        .key_columns
        .iter()
        .zip(&seed[2..4])
        .map(|(&c, &b)| {
            let rhs = match b % 9 {
                0..=4 => format!("?{}", b % 3 + 1),
                5 => "1".to_owned(),
                6 => "1.0".to_owned(),
                7 => "NULL".to_owned(),
                // Row-independent, so still a key, but it errors.
                _ => "-('x')".to_owned(),
            };
            format!("{} = {rhs}", COLS[c])
        })
        .collect();
    match seed[4] % 6 {
        0 => conjuncts.push("a > 0".into()),
        1 => conjuncts.push("s = 'x'".into()),
        2 => conjuncts.insert(0, "f IS NULL".into()),
        3 => conjuncts.push("(k < 3 OR a IS NULL)".into()),
        4 if seed[9].is_multiple_of(4) => {
            // No equality at all: both sides scan.
            conjuncts = vec!["k > 1".into()];
            probeable = false;
        }
        _ => {}
    }
    let filter = conjuncts.join(" AND ");
    let sql = match seed[0] % 3 {
        0 => {
            let items = ["*", "k, a", "s, f, k", "a + 1, k", "COUNT(*), SUM(a)"][seed[5] as usize % 5];
            let tail = if items.starts_with("COUNT") {
                ""
            } else {
                ["", " ORDER BY a DESC", " LIMIT 2", " ORDER BY s, k LIMIT 3"][seed[6] as usize % 4]
            };
            format!("SELECT {items} FROM t WHERE {filter}{tail}")
        }
        1 => {
            // Rewriting the probed key column itself: several rows move
            // off the key they were found under, and their new images
            // are all built before any is written.
            let own = COLS[def.key_columns[0]];
            let set = match seed[7] % 5 {
                0 | 1 => match own {
                    "s" => "s = 'z'".to_owned(),
                    "f" => "f = f + 1.0".to_owned(),
                    c => format!("{c} = {c} + 1"),
                },
                2 => "a = a + 1".to_owned(),
                3 => "k = k + 1, s = 'y'".to_owned(),
                _ => "f = ?2".to_owned(),
            };
            format!("UPDATE t SET {set} WHERE {filter}")
        }
        _ => format!("DELETE FROM t WHERE {filter}"),
    };
    (sql, probeable)
}

fn access_mut(stmt: &mut BoundStatement) -> &mut Access {
    match stmt {
        BoundStatement::Select(s) => &mut s.from.access,
        BoundStatement::Update(u) => &mut u.scan.access,
        BoundStatement::Delete(d) => &mut d.scan.access,
        BoundStatement::Insert(_) => unreachable!("no INSERT is generated"),
    }
}

/// Every value's bits, so 0.0 for -0.0 or one NaN for another would show.
fn identical(a: &[Tuple], b: &[Tuple]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.values().iter().zip(y.values()).all(|(u, v)| u.identical(v)))
}

fn contents(c: &Catalog) -> (Vec<RowId>, Vec<Tuple>) {
    c.table("t").unwrap().scan_ordered().map(|(id, t)| (id, t.clone())).unzip()
}

/// Runs `sql` as planned and with its access forced to the scan, each on
/// its own copy of `c`; the two must agree. Returns whether it probed.
fn assert_probe_equals_scan(
    c: &Catalog,
    sql: &str,
    probeable: bool,
    params: &[Value],
) -> Result<bool, TestCaseError> {
    let mut stmt = Planner::new(c).plan_sql(sql).unwrap();
    let probed = matches!(access_mut(&mut stmt), Access::IndexEq { .. });
    prop_assert_eq!(probed, probeable, "{}", sql);
    let mut scan = stmt.clone();
    *access_mut(&mut scan) = Access::FullScan;
    let (mut cp, mut cs) = (c.clone(), c.clone());
    let (mut fp, mut fs) = (Vec::new(), Vec::new());
    let rp = execute(&mut cp, &stmt, params, &mut fp);
    let rs = execute(&mut cs, &scan, params, &mut fs);
    match (&rp, &rs) {
        (Ok(p), Ok(s)) => {
            prop_assert!(identical(&p.rows, &s.rows), "{} {:?}: probe {:?}, scan {:?}", sql, params, p.rows, s.rows);
            prop_assert_eq!(p.rows_affected, s.rows_affected, "{} {:?}", sql, params);
        }
        (Err(p), Err(s)) => prop_assert_eq!(p.wire_code(), s.wire_code(), "{} {:?}: {} / {}", sql, params, p, s),
        (p, s) => prop_assert!(false, "{} {:?}: probe {:?}, scan {:?}", sql, params, p, s),
    }
    // Effects as recorded, partial ones of a failed statement included,
    // and the table they leave.
    prop_assert_eq!(format!("{fp:?}"), format!("{fs:?}"), "{} {:?}", sql, params);
    let ((ids_p, rows_p), (ids_s, rows_s)) = (contents(&cp), contents(&cs));
    prop_assert_eq!(ids_p, ids_s, "{}", sql);
    prop_assert!(identical(&rows_p, &rows_s), "{} {:?}", sql, params);
    Ok(probed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_eq_equals_scan(
        index_seeds in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(0usize..4, 1..3)),
            1..4,
        ),
        history in proptest::collection::vec(op(), 0..120),
        stmts in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 10..11), proptest::collection::vec(any::<u8>(), 3..4)),
            12..13,
        ),
    ) {
        let mut c = Catalog::new();
        let t = c.create_table("t", TableKind::Base, schema()).unwrap();
        // A unique index the churn would violate refuses the op instead.
        for d in index_defs(&index_seeds) {
            drop(t.create_index(d));
        }
        history.iter().for_each(|op| apply(t, op));
        let defs: Vec<IndexDef> = t.index_defs().cloned().collect();
        for (seed, params) in &stmts {
            let (sql, probeable) = statement(&defs, seed);
            let params: Vec<Value> = params.iter().map(|&b| param(b)).collect();
            assert_probe_equals_scan(&c, &sql, probeable, &params)?;
        }
    }
}

/// Several rows under one key of a non-unique index, updated off it:
/// every image comes from a pre-image, in row-id order, and a probe
/// afterwards finds them under their new key.
#[test]
fn a_multi_row_update_moves_its_rows_off_the_key_it_found_them_under() {
    let mut c = Catalog::new();
    let t = c.create_table("t", TableKind::Base, schema()).unwrap();
    let def = IndexDef { name: "by_a".into(), key_columns: vec![1], kind: IndexKind::Hash, unique: false };
    t.create_index(def).unwrap();
    for (k, a) in [(0, 1), (1, 2), (2, 1), (3, 1), (4, 2)] {
        t.insert(row((k, a + 1, 7, 0))).unwrap();
    }
    let sql = "UPDATE t SET a = a + 1, k = a WHERE a = ?";
    assert!(assert_probe_equals_scan(&c, sql, true, &[Value::Int(1)]).unwrap());
    let stmt = Planner::new(&c).plan_sql(sql).unwrap();
    let r = execute(&mut c, &stmt, &[Value::Int(1)], &mut Vec::new()).unwrap();
    assert_eq!(r.rows_affected, 3);
    // `k = a` read the pre-image's 1, not the new 2.
    let sel = Planner::new(&c).plan_sql("SELECT k FROM t WHERE a = 2").unwrap();
    let got = execute(&mut c, &sel, &[], &mut Vec::new()).unwrap().rows;
    let want: Vec<Tuple> = [1, 1, 1, 1, 4].iter().map(|&k| Tuple::new(vec![Value::Int(k)])).collect();
    assert_eq!(got, want, "rows 0, 2 and 3 moved to 2 beside rows 1 and 4, in row-id order");
}
