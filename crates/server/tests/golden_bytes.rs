//! Golden bytes for the wire protocol: every `Request` and `Response`
//! variant, encoded exactly as pinned here and decoded back. The
//! round-trip tests would still pass if a layout changed; these fail on
//! any changed byte.

use sstore_common::{Tuple, Value};
use sstore_server::protocol::{Request, Response};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const REQUESTS: [(&str, &str); 9] = [
    ("hello", "01010000000461636d65"),
    (
        "ingest",
        "02027331010202010100000000000000030178030002000000000000044005",
    ),
    ("call", "030300000004766f746501010700000000000000"),
    ("query", "04000000000853454c454354203100"),
    (
        "prepare",
        "051c53454c454354202a2046524f4d2074205748455245206964203d203f",
    ),
    ("execute", "06010000002a0000000203016b04"),
    ("metrics", "07"),
    ("ping", "08feffffffffffffff"),
    ("goodbye", "09"),
];

#[test]
fn every_request_variant() {
    let reqs = [
        Request::Hello {
            version: 1,
            tenant: "acme".into(),
        },
        Request::Ingest {
            stream: "s1".into(),
            rows: vec![
                Tuple::new(vec![Value::Int(1), Value::Text("x".into())]),
                Tuple::new(vec![Value::Null, Value::Float(2.5), Value::Bool(true)]),
            ],
            sync: true,
        },
        Request::Call {
            partition: 3,
            proc: "vote".into(),
            params: vec![Value::Int(7)],
        },
        Request::Query {
            partition: 0,
            sql: "SELECT 1".into(),
            params: vec![],
        },
        Request::Prepare {
            sql: "SELECT * FROM t WHERE id = ?".into(),
        },
        Request::Execute {
            partition: 1,
            stmt: 42,
            params: vec![Value::Text("k".into()), Value::Bool(false)],
        },
        Request::Metrics,
        Request::Ping {
            token: u64::MAX - 1,
        },
        Request::Goodbye,
    ];
    for (req, (what, want)) in reqs.iter().zip(REQUESTS) {
        let bytes = req.encode();
        assert_eq!(hex(&bytes), want, "{what}: the encoded bytes changed");
        assert_eq!(&Request::decode(&bytes).unwrap(), req);
    }
}

const RESPONSES: [(&str, &str); 8] = [
    ("welcome", "010100000004000000"),
    ("batch", "022c01000000000000"),
    (
        "rows",
        "0302016101620202010100000000000000040202000000000000e0bf000200000000000000",
    ),
    ("prepared", "0407000000"),
    (
        "metrics-resp",
        "\
        05020872657175657374730c000000000000001374656e616e742e612e6532655f7039395f75739001000000\
        000000",
    ),
    ("pong", "060000000000000000"),
    ("bye", "07"),
    ("error", "080b000000106f7665726c6f616465643a2073686564"),
];

#[test]
fn every_response_variant() {
    let resps = [
        Response::Welcome {
            version: 1,
            partitions: 4,
        },
        Response::Batch { batch: 300 },
        Response::Rows {
            columns: vec!["a".into(), "b".into()].into(),
            rows: vec![
                Tuple::new(vec![Value::Int(1), Value::Bool(false)]),
                Tuple::new(vec![Value::Float(-0.5), Value::Null]),
            ],
            rows_affected: 2,
        },
        Response::Prepared { stmt: 7 },
        Response::Metrics {
            entries: vec![("requests".into(), 12), ("tenant.a.e2e_p99_us".into(), 400)],
        },
        Response::Pong { token: 0 },
        Response::Bye,
        Response::Error {
            code: 11,
            message: "overloaded: shed".into(),
        },
    ];
    for (resp, (what, want)) in resps.iter().zip(RESPONSES) {
        let bytes = resp.encode();
        assert_eq!(hex(&bytes), want, "{what}: the encoded bytes changed");
        assert_eq!(&Response::decode(&bytes).unwrap(), resp);
    }
}
