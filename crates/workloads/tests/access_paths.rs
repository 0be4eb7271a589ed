//! Every compiled statement's access path, per workload: one table per
//! app of `(procedure or "trigger on <table>", statement, access)` rows,
//! read off the plans the engine runs (`AppIds::plans`). A planner
//! change that moves any statement onto another path fails here, naming
//! the statement.

use sstore_engine::names::AppIds;
use sstore_engine::App;
use sstore_sql::plan::{Access, BoundScan, BoundStatement};
use sstore_workloads::{linearroad, micro, voter};

/// `FullScan t`, `IndexEq t <key columns>`, `IndexOrder t <index>
/// <prefix> asc|desc`, `GroupIndex t keys <cols> aggs <cols> by_count
/// <order>`, or `Values t` for an INSERT … VALUES.
fn describe(ids: &AppIds, stmt: &BoundStatement) -> String {
    let scan = |s: &BoundScan| {
        let table = ids.table_name(s.table);
        match &s.access {
            Access::FullScan => format!("FullScan {table}"),
            Access::IndexEq { key_cols, .. } => format!("IndexEq {table} {key_cols:?}"),
            Access::IndexOrder { index, prefix_len, reverse } => {
                let dir = if *reverse { "desc" } else { "asc" };
                format!("IndexOrder {table} {index} {prefix_len} {dir}")
            }
            Access::GroupIndex { def, by_count } => format!(
                "GroupIndex {table} keys {:?} aggs {:?} by_count {by_count:?}",
                def.key_columns, def.agg_columns
            ),
        }
    };
    match stmt {
        BoundStatement::Select(s) => scan(&s.from),
        BoundStatement::Insert(i) => match &i.select {
            Some(s) => scan(&s.from),
            None => format!("Values {}", ids.table_name(i.table)),
        },
        BoundStatement::Update(u) => scan(&u.scan),
        BoundStatement::Delete(d) => scan(&d.scan),
    }
}

/// The app's rows: each procedure's statements in declaration order,
/// then each EE trigger's, by table id.
fn rows(app: &App) -> Vec<(String, String, String)> {
    let ids = AppIds::build(app).expect("app compiles");
    let plans = ids.plans();
    let mut out = Vec::new();
    for p in 0..ids.proc_count() {
        let meta = ids.proc(sstore_common::ProcId(p as u32));
        let mut stmts: Vec<_> = meta.stmts.iter().collect();
        stmts.sort_by_key(|(_, &id)| id);
        for (name, &id) in stmts {
            out.push((meta.name.to_string(), name.clone(), describe(&ids, &plans[id])));
        }
    }
    for (t, list) in ids.ee_triggers().iter().enumerate() {
        let owner = format!("trigger on {}", ids.table_name(sstore_common::TableId(t as u32)));
        for (k, &id) in list.iter().flatten().enumerate() {
            out.push((owner.clone(), format!("#{k}"), describe(&ids, &plans[id])));
        }
    }
    out
}

fn check(app: App, want: &[(&str, &str, &str)]) {
    let got = rows(&app);
    let shown: Vec<String> =
        got.iter().map(|(o, s, a)| format!("({o:?}, {s:?}, {a:?}),")).collect();
    let want: Vec<(String, String, String)> =
        want.iter().map(|(o, s, a)| (o.to_string(), s.to_string(), a.to_string())).collect();
    assert_eq!(got, want, "actual table:\n{}", shown.join("\n"));
}

/// Both variants register the same statements; `validate` runs them
/// only when phones are checked.
const VOTER: &[(&str, &str, &str)] = &[
    ("seed", "ins_c", "Values contestants"),
    ("seed", "ins_cnt", "Values vote_counts"),
    ("seed", "ins_total", "Values total_votes"),
    ("validate", "chk_contestant", "IndexEq contestants [0]"),
    ("validate", "chk_phone", "IndexEq votes [0]"),
    ("validate", "record", "Values votes"),
    ("maintain", "w_ins", "Values w_trend"),
    ("maintain", "bump", "IndexEq vote_counts [0]"),
    ("maintain", "bump_total", "FullScan total_votes"),
    ("maintain", "clear_top", "FullScan leaderboard"),
    ("maintain", "fill_top", "IndexOrder vote_counts vote_counts_by_cnt 1 desc"),
    ("maintain", "clear_bottom", "FullScan leaderboard"),
    ("maintain", "fill_bottom", "IndexOrder vote_counts vote_counts_by_cnt 2 asc"),
    ("maintain", "clear_trend", "FullScan leaderboard"),
    ("maintain", "fill_trend", "GroupIndex w_trend keys [0] aggs [] by_count Some(Desc)"),
    ("delete_lowest", "total", "FullScan total_votes"),
    ("delete_lowest", "lowest", "IndexOrder vote_counts vote_counts_by_cnt 2 asc"),
    ("delete_lowest", "actives", "FullScan vote_counts"),
    ("delete_lowest", "deactivate", "IndexEq contestants [0]"),
    ("delete_lowest", "purge_votes", "IndexEq votes [1]"),
    ("delete_lowest", "purge_count", "IndexEq vote_counts [0]"),
    ("delete_lowest", "purge_board", "FullScan leaderboard"),
];

#[test]
fn voter_with_validation() {
    check(voter::leaderboard_app(true), VOTER);
}

#[test]
fn voter_without_validation() {
    check(voter::leaderboard_app(false), VOTER);
}

#[test]
fn linear_road() {
    check(
        linearroad::linear_road_app(),
        &[
            ("update_position", "get_vehicle", "IndexEq vehicles [0]"),
            ("update_position", "ins_vehicle", "Values vehicles"),
            ("update_position", "upd_vehicle", "IndexEq vehicles [0]"),
            ("update_position", "win30", "Values seg_win"),
            ("update_position", "win300", "Values speed_win"),
            ("update_position", "notify", "Values notifications"),
            ("update_position", "get_toll", "IndexEq tolls [0]"),
            ("update_position", "ins_toll", "Values tolls"),
            ("update_position", "charge", "IndexEq tolls [0]"),
            ("update_position", "get_accident", "IndexEq accidents [0, 1]"),
            ("update_position", "ins_accident", "Values accidents"),
            ("minute_rollup", "clear", "FullScan accidents"),
            ("trigger on seg_win", "#0", "FullScan seg_win"),
            ("trigger on speed_win", "#0", "FullScan speed_win"),
        ],
    );
}

#[test]
fn ee_chains() {
    let triggered = &[
        ("driver", "ins", "Values s1"),
        ("trigger on s1", "#0", "FullScan s1"),
        ("trigger on s2", "#0", "FullScan s2"),
        ("trigger on s3", "#0", "FullScan s3"),
    ];
    check(micro::ee_chain_sstore(3), triggered);
    check(micro::ee_chain_partitioned(3), triggered);
    check(
        micro::ee_chain_hstore(3),
        &[
            ("driver", "ins", "Values t1"),
            ("driver", "mov1", "FullScan t1"),
            ("driver", "del1", "FullScan t1"),
            ("driver", "mov2", "FullScan t2"),
            ("driver", "del2", "FullScan t2"),
            ("driver", "mov3", "FullScan t3"),
            ("driver", "del3", "FullScan t3"),
        ],
    );
}

#[test]
fn pe_chain_and_exchange_pipeline() {
    check(micro::pe_chain(3), &[("sp3", "fin", "Values done")]);
    check(micro::exchange_pipeline(), &[("sp2", "ins", "Values xout")]);
}

#[test]
fn windows_native_and_manual() {
    check(micro::window_native(10, 2), &[("wproc", "ins", "Values w")]);
    check(
        micro::window_manual(10, 2),
        &[
            ("seed", "init", "Values wmeta"),
            ("wproc", "meta", "FullScan wmeta"),
            ("wproc", "ins", "Values wtab"),
            ("wproc", "activate", "FullScan wtab"),
            ("wproc", "expire", "FullScan wtab"),
            ("wproc", "setmeta", "FullScan wmeta"),
        ],
    );
}
