//! The build contract: every app either fails to compile with a stable
//! error kind or runs. One invalid app per rule, each asserted through
//! both doors — `AppBuilder::build`, and `Engine::start` on a valid app
//! with one public field edited after build — with the same kind.

use sstore_common::{DataType, Error, Schema};
use sstore_engine::app::{ProcDef, StreamDef, Windowing};
use sstore_engine::trigger::{EeTriggerDef, PeTriggerDef};
use sstore_engine::{App, AppBuilder, Engine, EngineConfig, LoggingConfig};

fn tkv() -> Schema {
    Schema::of(&[("ts", DataType::Int), ("k", DataType::Int), ("v", DataType::Int)])
}

/// A valid app touching every rule: a partitioned timed border stream,
/// a workflow s_in → p1 → mid → hop → x (exchange) → sink, a sliding
/// and a time window owned by p1, an EE trigger on the time window, and
/// an untriggered stream `out`.
fn base() -> AppBuilder {
    App::builder()
        .table("t", tkv())
        .stream_partitioned_timed("s_in", tkv(), "k", "ts")
        .stream("mid", tkv())
        .exchange_stream("x", tkv(), "k")
        .stream("out", tkv())
        .window("w", "p1", tkv(), 4, 1)
        .time_window("tw", "p1", tkv(), "ts", 30, 10, 0)
        .proc(
            "p1",
            &[
                ("ins", "INSERT INTO w (ts, k, v) VALUES (?, ?, ?)"),
                ("q", "SELECT k, COUNT(*) FROM w GROUP BY k"),
            ],
            &["mid"],
            |_| Ok(()),
        )
        .proc("hop", &[], &["x"], |_| Ok(()))
        .proc("sink", &[("up", "UPDATE t SET v = v + 1 WHERE k = ?")], &[], |_| Ok(()))
        .pe_trigger("s_in", "p1")
        .pe_trigger("mid", "hop")
        .pe_trigger("x", "sink")
        .ee_trigger("tw", &["INSERT INTO t (ts, k, v) SELECT ts, k, v FROM tw"])
}

fn noop(b: AppBuilder, name: &str, statements: &[(&str, &str)], outputs: &[&str]) -> AppBuilder {
    b.proc(name, statements, outputs, |_| Ok(()))
}

fn nested(name: &str, children: &[&str]) -> ProcDef {
    ProcDef {
        name: name.into(),
        statements: Vec::new(),
        body: None,
        outputs: Vec::new(),
        children: children.iter().map(|c| (*c).into()).collect(),
    }
}

fn pe(stream: &str, proc: &str) -> PeTriggerDef {
    PeTriggerDef { stream: stream.into(), proc: proc.into() }
}

fn ee(table: &str, sql: &[&str]) -> EeTriggerDef {
    EeTriggerDef { table: table.into(), sql: sql.iter().map(|s| (*s).into()).collect() }
}

fn stmt(name: &str, sql: &str) -> (String, String) {
    (name.into(), sql.into())
}

fn not_found() -> u16 {
    Error::not_found("", "").wire_code()
}

fn already_exists() -> u16 {
    Error::already_exists("", "").wire_code()
}

fn parse() -> u16 {
    Error::Parse(String::new()).wire_code()
}

fn plan() -> u16 {
    Error::Plan(String::new()).wire_code()
}

fn violation() -> u16 {
    Error::StreamViolation(String::new()).wire_code()
}

const INSERT_X: &str = "INSERT INTO x (ts, k, v) VALUES (?, ?, ?)";
const INSERT_MID: &str = "INSERT INTO mid (ts, k, v) VALUES (?, ?, ?)";
const MID_FROM_OUT: &str = "INSERT INTO mid (ts, k, v) SELECT ts, k, v FROM out";

/// One rule: the kind (wire code) its violation fails with, an invalid
/// builder, and the same violation as an edit of [`base`]'s built app.
struct Case {
    rule: &'static str,
    kind: u16,
    build: fn() -> AppBuilder,
    edit: fn(&mut App),
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            rule: "duplicate table name",
            kind: already_exists(),
            build: || base().table("mid", tkv()),
            edit: |a| a.tables.push(a.tables[0].clone()),
        },
        Case {
            rule: "duplicate procedure",
            kind: already_exists(),
            build: || noop(base(), "sink", &[], &[]),
            edit: |a| a.procs.push(a.procs[2].clone()),
        },
        Case {
            rule: "duplicate statement",
            kind: already_exists(),
            build: || {
                noop(base(), "q2", &[("a", "SELECT k FROM t"), ("a", "SELECT v FROM t")], &[])
            },
            edit: |a| a.procs[0].statements.push(stmt("ins", "SELECT k FROM t")),
        },
        Case {
            rule: "duplicate PE trigger",
            kind: already_exists(),
            build: || base().pe_trigger("x", "sink"),
            edit: |a| a.pe_triggers.push(pe("x", "sink")),
        },
        Case {
            rule: "unknown partition column",
            kind: plan(),
            build: || base().stream_partitioned("s2", tkv(), "nosuch"),
            edit: |a| a.streams[0].partition_col = Some("nosuch".into()),
        },
        Case {
            rule: "unknown stream timestamp column",
            kind: plan(),
            build: || base().stream_timed("s2", tkv(), "nosuch"),
            edit: |a| a.streams[0].ts_col = Some("nosuch".into()),
        },
        Case {
            rule: "window slide larger than its size",
            kind: violation(),
            build: || base().window("w2", "p1", tkv(), 2, 3),
            edit: |a| {
                if let Windowing::Tuple(spec) = &mut a.windows[0].windowing {
                    spec.slide = 9;
                }
            },
        },
        Case {
            rule: "unknown time-window timestamp column",
            kind: plan(),
            build: || base().time_window("tw2", "p1", tkv(), "nosuch", 30, 10, 0),
            edit: |a| {
                if let Windowing::Time(spec) = &mut a.windows[1].windowing {
                    spec.ts_column = "nosuch".into();
                }
            },
        },
        Case {
            rule: "unknown window owner",
            kind: not_found(),
            build: || base().window("w2", "ghost", tkv(), 4, 1),
            edit: |a| {
                if let Windowing::Tuple(spec) = &mut a.windows[0].windowing {
                    spec.owner = "ghost".into();
                }
            },
        },
        Case {
            rule: "time window without an event-time stream",
            kind: violation(),
            build: || {
                noop(App::builder(), "p", &[], &[]).time_window("tw", "p", tkv(), "ts", 30, 10, 0)
            },
            edit: |a| a.streams[0].ts_col = None,
        },
        Case {
            rule: "PE trigger on a window",
            kind: violation(),
            build: || base().pe_trigger("w", "sink"),
            edit: |a| a.pe_triggers.push(pe("w", "sink")),
        },
        Case {
            rule: "PE trigger on an unknown stream",
            kind: not_found(),
            build: || base().pe_trigger("ghost", "sink"),
            edit: |a| a.pe_triggers.push(pe("ghost", "sink")),
        },
        Case {
            rule: "PE trigger to an unknown procedure",
            kind: not_found(),
            build: || base().pe_trigger("out", "ghost"),
            edit: |a| a.pe_triggers[0].proc = "ghost".into(),
        },
        Case {
            rule: "exchange stream without a PE trigger",
            kind: violation(),
            build: || base().exchange_stream("x2", tkv(), "k"),
            edit: |a| a.streams.push(StreamDef { name: "x2".into(), ..a.streams[2].clone() }),
        },
        Case {
            rule: "EE trigger on a base table",
            kind: violation(),
            build: || base().ee_trigger("t", &[]),
            edit: |a| a.ee_triggers.push(ee("t", &[])),
        },
        Case {
            rule: "stream with both EE and PE triggers",
            kind: violation(),
            build: || base().ee_trigger("mid", &[]),
            edit: |a| a.ee_triggers.push(ee("mid", &[])),
        },
        Case {
            rule: "EE-trigger SQL that does not parse",
            kind: parse(),
            build: || base().ee_trigger("out", &["INSERT INTO t SELEKT"]),
            edit: |a| a.ee_triggers[0].sql[0] = "INSERT INTO t SELEKT".into(),
        },
        Case {
            rule: "EE-trigger SQL with an unknown column",
            kind: plan(),
            build: || {
                base()
                    .ee_trigger("out", &["INSERT INTO t (ts, k, v) SELECT ts, k, nosuch FROM out"])
            },
            edit: |a| {
                a.ee_triggers[0].sql[0] =
                    "INSERT INTO t (ts, k, v) SELECT ts, k, nosuch FROM tw".into()
            },
        },
        Case {
            rule: "unknown output stream",
            kind: not_found(),
            build: || noop(base(), "q2", &[], &["ghost"]),
            edit: |a| a.procs[2].outputs.push("ghost".into()),
        },
        Case {
            rule: "procedure with neither body nor children",
            kind: plan(),
            build: || base().nested("n", &[]),
            edit: |a| a.procs[2].body = None,
        },
        Case {
            rule: "unknown nested child",
            kind: not_found(),
            build: || base().nested("n", &["ghost"]),
            edit: |a| a.procs.push(nested("n", &["ghost"])),
        },
        Case {
            rule: "nested transaction inside a nested transaction",
            kind: plan(),
            build: || base().nested("n1", &["sink"]).nested("n2", &["n1"]),
            edit: |a| a.procs.extend([nested("n1", &["sink"]), nested("n2", &["n1"])]),
        },
        Case {
            rule: "statement that does not parse",
            kind: parse(),
            build: || noop(base(), "q2", &[("bad", "SELEKT * FROM t")], &[]),
            edit: |a| a.procs[2].statements[0].1 = "SELEKT * FROM t".into(),
        },
        Case {
            rule: "statement with an unknown column",
            kind: plan(),
            build: || noop(base(), "q2", &[("bad", "SELECT nosuch FROM t")], &[]),
            edit: |a| a.procs[2].statements[0].1 = "UPDATE t SET v = v + 1 WHERE nosuch = ?".into(),
        },
        Case {
            rule: "statement on an unknown table",
            kind: not_found(),
            build: || noop(base(), "q2", &[("bad", "SELECT k FROM ghost")], &[]),
            edit: |a| a.procs[2].statements[0].1 = "UPDATE ghost SET v = 1".into(),
        },
        Case {
            rule: "window read by a procedure that does not own it",
            kind: violation(),
            build: || noop(base(), "q2", &[("peek", "SELECT k FROM w")], &[]),
            edit: |a| a.procs[2].statements.push(stmt("peek", "SELECT k FROM w")),
        },
        Case {
            rule: "DELETE on a window, even by its owner",
            kind: violation(),
            build: || {
                noop(
                    App::builder().window("w", "p", tkv(), 4, 1),
                    "p",
                    &[("d", "DELETE FROM w")],
                    &[],
                )
            },
            edit: |a| a.procs[0].statements.push(stmt("d", "DELETE FROM w WHERE k = ?")),
        },
        Case {
            rule: "workflow cycle",
            kind: violation(),
            build: || {
                base()
                    .pe_trigger("out", "p1")
                    .proc("loop", &[], &["out"], |_| Ok(()))
                    .pe_trigger("x", "loop")
            },
            edit: |a| a.procs[2].outputs.push("s_in".into()),
        },
        Case {
            rule: "ingest-only stream with two PE triggers",
            kind: violation(),
            build: || base().pe_trigger("out", "sink").pe_trigger("out", "hop"),
            edit: |a| a.pe_triggers.push(pe("s_in", "sink")),
        },
        Case {
            rule: "exchange stream with two producers",
            kind: violation(),
            build: || noop(base(), "hop2", &[], &["x"]).pe_trigger("mid", "hop2"),
            edit: |a| a.procs[0].outputs.push("x".into()),
        },
        Case {
            rule: "exchange stream fed by two border streams",
            kind: violation(),
            build: || base().pe_trigger("out", "p1"),
            edit: |a| a.pe_triggers.push(pe("out", "p1")),
        },
        Case {
            rule: "undeclared procedure INSERT into an exchange stream",
            kind: violation(),
            build: || noop(base(), "q2", &[("w", INSERT_X)], &[]),
            edit: |a| a.procs[2].statements.push(stmt("w", INSERT_X)),
        },
        Case {
            rule: "undeclared procedure INSERT into a stream that feeds an exchange",
            kind: violation(),
            build: || noop(base(), "q2", &[("w", INSERT_MID)], &[]),
            edit: |a| a.procs[2].statements.push(stmt("w", INSERT_MID)),
        },
        Case {
            rule: "stream trigger output reaching an exchange",
            kind: violation(),
            build: || base().ee_trigger("out", &[MID_FROM_OUT]),
            edit: |a| a.ee_triggers.push(ee("out", &[MID_FROM_OUT])),
        },
        Case {
            rule: "time-window trigger output reaching an exchange",
            kind: violation(),
            build: || {
                base().ee_trigger("tw", &["INSERT INTO mid (ts, k, v) SELECT ts, k, v FROM tw"])
            },
            edit: |a| {
                a.ee_triggers[0]
                    .sql
                    .push("INSERT INTO mid (ts, k, v) SELECT ts, k, v FROM tw".into())
            },
        },
    ]
}

fn config() -> EngineConfig {
    EngineConfig::default().with_logging(LoggingConfig { enabled: false, ..Default::default() })
}

#[test]
fn the_base_app_builds_and_starts() {
    let app = base().build().expect("the base app is valid");
    Engine::start(config().with_partitions(2), app).expect("and starts").close().unwrap();
}

#[test]
fn every_rule_fails_build_with_its_kind() {
    for case in cases() {
        match (case.build)().build() {
            Ok(_) => panic!("{}: built", case.rule),
            Err(e) => assert_eq!(e.wire_code(), case.kind, "{}: {e}", case.rule),
        }
    }
}

#[test]
fn every_rule_fails_start_with_its_kind_on_an_app_edited_after_build() {
    for case in cases() {
        let mut app = base().build().unwrap();
        (case.edit)(&mut app);
        match Engine::start(config().with_partitions(2), app) {
            Ok(engine) => {
                engine.close().unwrap();
                panic!("{}: started", case.rule);
            }
            Err(e) => assert_eq!(e.wire_code(), case.kind, "{}: {e}", case.rule),
        }
    }
}
