//! Golden bytes for every on-disk format: one command-log record of
//! each kind, a checkpoint file, the manifest, a stream section, both
//! window sections, a table image and one whole engine checkpoint. The
//! round-trip tests elsewhere would still pass if a layout changed;
//! these fail on any changed byte, and each also decodes its golden
//! bytes back to the value that wrote them.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{tuple, BatchId, Column, DataType, Lsn, RowId, Schema, Value};
use sstore_engine::checkpoint::{
    read_checkpoint, read_manifest_on, write_checkpoint, write_manifest_on, CheckpointFile,
    CheckpointKind, Manifest,
};
use sstore_engine::log::{CommandLog, LogKind};
use sstore_engine::stream::StreamState;
use sstore_engine::vfs::StdVfs;
use sstore_engine::window::{TimeWindowSpec, TimeWindowState, WindowSlot, WindowSpec, WindowState};
use sstore_engine::{App, Engine, EngineConfig, LoggingConfig};
use sstore_storage::snapshot::{encode_table_image, TableFrame};
use sstore_storage::{Catalog, IndexDef, IndexKind, TableKind};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sstore-golden-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Asserts `bytes` are exactly the golden hex `want`.
fn golden(what: &str, bytes: &[u8], want: &str) {
    assert_eq!(hex(bytes), want, "{what}: the encoded bytes changed");
}

/// The command-log segment header, then one framed record of each kind.
const LOG_HEADER: &str = "474c53530400000000000000000000000100000000000000";
const LOG_RECORDS: [(&str, &str); 5] = [
    (
        "oltp",
        "1d000000e31315410100000000000000067265706f72740002010300000000000000030178",
    ),
    (
        "border",
        "\
        3e00000073b25d5e020000000000000004766f74650108766f7465735f696e070000000000000002020198b3\
        540000000000010300000000000000020199b354000000000000",
    ),
    (
        "interior",
        "240000000649ce0a0300000000000000086d61696e7461696e020976616c6964617465640700000000000000",
    ),
    (
        "exchange",
        "\
        310000008c7dd9970400000000000000056d657267650304786d696408000000000000000103010100000000\
        00000002000000000000044005",
    ),
    (
        "adhoc",
        "\
        3a0000002346e50d050000000000000006406164686f63041e5550444154452074205345542076203d203f20\
        5748455245206b203d203f020401ffffffffffffffff",
    ),
];

#[test]
fn command_log_records() {
    let kinds = vec![
        (
            "report",
            LogKind::Oltp {
                params: vec![Value::Int(3), Value::Text("x".into())].into(),
            },
        ),
        (
            "vote",
            LogKind::Border {
                stream: "votes_in".into(),
                batch: BatchId(7),
                rows: vec![tuple![5551000i64, 3i64], tuple![5551001i64, Value::Null]].into(),
            },
        ),
        (
            "maintain",
            LogKind::Interior {
                stream: "validated".into(),
                batch: BatchId(7),
            },
        ),
        (
            "merge",
            LogKind::Exchange {
                stream: "xmid".into(),
                batch: BatchId(8),
                rows: vec![tuple![1i64, 2.5f64, true]].into(),
            },
        ),
        (
            "@adhoc",
            LogKind::AdHoc {
                sql: "UPDATE t SET v = ? WHERE k = ?".into(),
                params: vec![Value::Bool(false), Value::Int(-1)].into(),
            },
        ),
    ];
    let path = test_dir("log").join("p.cmdlog");
    let config = LoggingConfig {
        enabled: true,
        group_commit: 1,
        fsync: false,
        ..Default::default()
    };
    let mut log = CommandLog::create(&path, config).unwrap();
    for (proc, kind) in &kinds {
        log.append(proc, kind.clone()).unwrap();
    }
    log.close().unwrap();
    drop(log);
    let bytes = std::fs::read(&path).unwrap();
    golden("log header", &bytes[..24], LOG_HEADER);
    let mut off = 24;
    for (what, want) in LOG_RECORDS {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        golden(what, &bytes[off..off + 8 + len], want);
        off += 8 + len;
    }
    assert_eq!(off, bytes.len());
    let records = CommandLog::read_all(&path).unwrap();
    assert_eq!(records.len(), kinds.len());
    for (i, (rec, (proc, kind))) in records.iter().zip(&kinds).enumerate() {
        assert_eq!(
            (rec.lsn, rec.proc.as_str(), &rec.kind),
            (Lsn(i as u64 + 1), *proc, kind)
        );
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

const CHECKPOINT: &str = "\
    4b435353070000000300000000000000012900000000000000020273322c0100000000000008766f7465735f\
    696e07000000000000000104786d69640500000000000000050102030405";
const MANIFEST: &str = "\
    464d535301000000030400000000000000050000000000000007000000000000000278000000000000006200\
    000000000000";

#[test]
fn checkpoint_file_and_manifest() {
    let dir = test_dir("ck");
    let ck = CheckpointFile {
        epoch: 3,
        kind: CheckpointKind::Delta,
        last_lsn: Lsn(41),
        batch_counters: HashMap::from([("votes_in".into(), 7u64), ("s2".into(), 300u64)]),
        exchange_floor: HashMap::from([("xmid".into(), 5u64)]),
        ee_image: vec![1, 2, 3, 4, 5],
    };
    let path = dir.join("partition-0.snapshot.00000003");
    write_checkpoint(&path, &ck).unwrap();
    golden("checkpoint", &std::fs::read(&path).unwrap(), CHECKPOINT);
    assert_eq!(read_checkpoint(&path).unwrap().unwrap(), ck);

    let m = Manifest {
        epochs: vec![4, 5, 7],
        floors: vec![120, 98],
    };
    let path = dir.join("durability.manifest");
    write_manifest_on(&StdVfs, &path, &m).unwrap();
    golden("manifest", &std::fs::read(&path).unwrap(), MANIFEST);
    assert_eq!(read_manifest_on(&StdVfs, &path).unwrap().unwrap(), m);
    std::fs::remove_dir_all(&dir).ok();
}

const STREAM_SECTION: &str =
    "020300000000000000021e000000000000001f00000000000000c800000000000000014600000000000000";
const TUPLE_WINDOW_SECTION: &str = "00017701700302020101010000000000000001030374776f";
const TIME_WINDOW_SECTION: &str = "\
    0102747701700274731e000000000000000a0000000000000005000000000000000107000000000000000100\
    000000000000000002fcffffffffffffff010201fcffffffffffffff0103000000000000000c000000000000\
    000202010c0000000000000001010000000000000002010c00000000000000010200000000000000";

#[test]
fn stream_and_window_sections() {
    let mut s = StreamState::new();
    s.append(BatchId(3), [RowId(30), RowId(31)]);
    s.append(BatchId(200), [RowId(70)]);
    let mut e = Encoder::new();
    s.encode(&mut e);
    golden("stream section", e.as_bytes(), STREAM_SECTION);
    assert_eq!(
        StreamState::decode(&mut Decoder::new(e.as_bytes())).unwrap(),
        s
    );

    let mut w = WindowState::new(WindowSpec {
        name: "w".into(),
        owner: "p".into(),
        size: 3,
        slide: 2,
    })
    .unwrap();
    w.stage([tuple![1i64], tuple!["two"]]);
    let mut e = Encoder::new();
    WindowSlot::Tuple(w.clone()).encode(&mut e);
    golden("tuple window section", e.as_bytes(), TUPLE_WINDOW_SECTION);
    assert_eq!(
        WindowSlot::decode(&mut Decoder::new(e.as_bytes())).unwrap(),
        WindowSlot::Tuple(w)
    );

    let mut tw = TimeWindowState::new(TimeWindowSpec {
        name: "tw".into(),
        owner: "p".into(),
        ts_column: "ts".into(),
        size_ms: 30,
        slide_ms: 10,
        allowed_lateness_ms: 5,
    })
    .unwrap();
    tw.stage(12, tuple![12i64, 1i64]);
    tw.stage(12, tuple![12i64, 2i64]);
    tw.stage(-4, tuple![-4i64, 3i64]);
    tw.advance_watermark(7, 0);
    let mut e = Encoder::new();
    WindowSlot::Time(tw.clone()).encode(&mut e);
    golden("time window section", e.as_bytes(), TIME_WINDOW_SECTION);
    assert_eq!(
        WindowSlot::decode(&mut Decoder::new(e.as_bytes())).unwrap(),
        WindowSlot::Time(tw)
    );
}

const TABLE_IMAGE: &str = "\
    630000000000000005766f74657300020570686f6e650000046e616d6502010300000000000000020862795f\
    70686f6e65000101000762795f626f74680100020100020000000000000000020198b3540000000000030161\
    020000000000000002019ab354000000000000";

#[test]
fn table_image() {
    let mut c = Catalog::new();
    let t = c
        .create_table(
            "votes",
            TableKind::Base,
            Schema::new(vec![
                Column::new("phone", DataType::Int),
                Column::nullable("name", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
    t.create_index(IndexDef {
        name: "by_phone".into(),
        key_columns: vec![0],
        kind: IndexKind::Hash,
        unique: true,
    })
    .unwrap();
    t.create_index(IndexDef {
        name: "by_both".into(),
        key_columns: vec![1, 0],
        kind: IndexKind::BTree,
        unique: false,
    })
    .unwrap();
    t.insert(tuple![5551000i64, "a"]).unwrap();
    let gone = t.insert(tuple![5551001i64, "b"]).unwrap();
    t.insert(tuple![5551002i64, Value::Null]).unwrap();
    t.delete(gone).unwrap();
    let mut e = Encoder::new();
    encode_table_image(&mut e, t);
    golden("table image", e.as_bytes(), TABLE_IMAGE);
    let table = TableFrame::read(&mut Decoder::new(e.as_bytes()))
        .unwrap()
        .decode()
        .unwrap();
    let mut again = Encoder::new();
    encode_table_image(&mut again, &table);
    assert_eq!(again.as_bytes(), e.as_bytes());
}

const ENGINE_BASE: &str = "\
    4b4353530700000001000000000000000001000000000000000101730100000000000000008703d901414e53\
    5302000000044f00000000000000036f75740102027473000001760000020000000000000000020000000000\
    00000002010500000000000000010100000000000000010000000000000002010c0000000000000001020000\
    0000000000170000000000000001730102027473000001760000000000000000000000003300000000000000\
    0274770202027473000001760000010000000000000000010000000000000000020105000000000000000101\
    000000000000001700000000000000017702020274730000017600000000000000000000000002036f757401\
    0100000000000000020000000000000000010000000000000000017300010c00000000000000020102747701\
    700274731e000000000000000a000000000000000500000000000000010c0000000000000001140000000000\
    000001010c000000000000000102010c00000000000000010200000000000000000177017003010202010500\
    00000000000001010000000000000002010c00000000000000010200000000000000";
const ENGINE_DELTA: &str = "\
    4b435353070000000200000000000000010200000000000000010173020000000000000000a1030401440000\
    0000000000036f75740400000000000000000202000000000000000201290000000000000001030000000000\
    0000030000000000000002010900000000000000010400000000000000010c00000000000000017300000000\
    0000000000000130000000000000000274770300000000000000010000000000000000010200000000000000\
    02010c00000000000000010200000000000000015d0000000000000001770400000000000000000301000000\
    0000000002010c00000000000000010200000000000000020000000000000002012900000000000000010300\
    00000000000003000000000000000201090000000000000001040000000000000002036f7574020100000000\
    0000000200000000000000000100000000000000020000000000000002020000000000000003000000000000\
    0000017300012900000000000000020102747701700274731e000000000000000a0000000000000005000000\
    0000000001290000000000000001320000000000000001012900000000000000010201290000000000000001\
    03000000000000000001770170030100";

/// A timed border stream feeding a tuple window, a time window and an
/// unconsumed output stream: an image with a high mark, pending stream
/// batches and both window sections.
fn windowed_app() -> App {
    let ts_v = || Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]);
    App::builder()
        .stream_timed("s", ts_v(), "ts")
        .stream("out", ts_v())
        .window("w", "p", ts_v(), 3, 1)
        .time_window("tw", "p", ts_v(), "ts", 30, 10, 5)
        .proc(
            "p",
            &[
                ("w", "INSERT INTO w (ts, v) VALUES (?, ?)"),
                ("tw", "INSERT INTO tw (ts, v) VALUES (?, ?)"),
            ],
            &["out"],
            |ctx| {
                let rows = ctx.input().to_vec();
                for r in &rows {
                    ctx.sql("w", r.values())?;
                    ctx.sql("tw", r.values())?;
                }
                ctx.emit("out", rows)
            },
        )
        .pe_trigger("s", "p")
        .build()
        .unwrap()
}

#[test]
fn engine_checkpoint_images() {
    let dir = test_dir("engine");
    let config = EngineConfig::default()
        .with_data_dir(&dir)
        .with_logging(LoggingConfig {
            enabled: true,
            group_commit: 1,
            fsync: false,
            ..Default::default()
        });
    let engine = Engine::start(config.clone(), windowed_app()).unwrap();
    engine
        .ingest("s", vec![tuple![5i64, 1i64], tuple![12i64, 2i64]])
        .unwrap();
    engine.drain().unwrap();
    engine.checkpoint().unwrap();
    engine
        .ingest("s", vec![tuple![41i64, 3i64], tuple![9i64, 4i64]])
        .unwrap();
    engine.drain().unwrap();
    engine.checkpoint().unwrap();
    engine.shutdown();
    golden(
        "engine base",
        &std::fs::read(config.checkpoint_path(0, 1)).unwrap(),
        ENGINE_BASE,
    );
    golden(
        "engine delta",
        &std::fs::read(config.checkpoint_path(0, 2)).unwrap(),
        ENGINE_DELTA,
    );
    std::fs::remove_dir_all(&dir).ok();
}
