//! Property tests for the wire protocol: round-trips survive
//! arbitrary payloads, and every way to mangle a frame — truncation at
//! any byte, an oversized or zero length header, trailing garbage —
//! is rejected loudly instead of decoded into something plausible.

use proptest::prelude::*;
use sstore_common::{Tuple, Value};
use sstore_server::protocol::{read_frame, write_frame, Request, Response, MAX_FRAME};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        // Finite floats only: NaN breaks PartialEq round-trip checks
        // without telling us anything about the codec.
        any::<i64>().prop_map(|i| Value::Float(i as f64 / 64.0)),
        "[a-z0-9 ]{0,24}".prop_map(Value::Text),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 0..6).prop_map(Tuple::new)
}

fn arb_params() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(arb_value(), 0..5)
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u32>(), "[a-z]{0,12}")
            .prop_map(|(version, tenant)| Request::Hello { version, tenant }),
        ("[a-z_]{1,12}", proptest::collection::vec(arb_tuple(), 0..8), any::<bool>())
            .prop_map(|(stream, rows, sync)| Request::Ingest { stream, rows, sync }),
        (any::<u32>(), "[a-z_]{1,12}", arb_params())
            .prop_map(|(partition, proc, params)| Request::Call { partition, proc, params }),
        (any::<u32>(), "[ -~]{0,64}", arb_params())
            .prop_map(|(partition, sql, params)| Request::Query { partition, sql, params }),
        "[ -~]{0,64}".prop_map(|sql| Request::Prepare { sql }),
        (any::<u32>(), any::<u32>(), arb_params())
            .prop_map(|(partition, stmt, params)| Request::Execute { partition, stmt, params }),
        Just(Request::Metrics),
        any::<u64>().prop_map(|token| Request::Ping { token }),
        Just(Request::Goodbye),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u32>(), any::<u32>())
            .prop_map(|(version, partitions)| Response::Welcome { version, partitions }),
        any::<u64>().prop_map(|batch| Response::Batch { batch }),
        (
            proptest::collection::vec("[a-z]{1,8}".prop_map(String::from), 0..5),
            proptest::collection::vec(arb_tuple(), 0..6),
            any::<u64>(),
        )
            .prop_map(|(columns, rows, rows_affected)| Response::Rows {
                columns: columns.into(),
                rows,
                rows_affected
            }),
        any::<u32>().prop_map(|stmt| Response::Prepared { stmt }),
        proptest::collection::vec(("[a-z._]{1,20}".prop_map(String::from), any::<u64>()), 0..10)
            .prop_map(|entries| Response::Metrics { entries }),
        any::<u64>().prop_map(|token| Response::Pong { token }),
        Just(Response::Bye),
        (any::<u16>(), "[ -~]{0,48}")
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity for every request shape.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let bytes = req.encode();
        prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    /// encode → decode is the identity for every response shape.
    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let bytes = resp.encode();
        prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    /// A frame carries arbitrary payload bytes intact, and truncating
    /// the framed bytes at ANY interior position is a loud error —
    /// never a short-but-successful read, never a hang, never a
    /// decode of garbage.
    #[test]
    fn frame_roundtrip_and_every_truncation_fails(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        cut_pm in 0usize..1000,
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut r = &framed[..];
        prop_assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        // Interior cut: strictly between 0 (clean EOF) and the end.
        let cut = 1 + (framed.len() - 1) * cut_pm / 1000;
        if cut < framed.len() {
            let mut r = &framed[..cut];
            prop_assert!(read_frame(&mut r).is_err(), "cut at {cut} must be loud");
        }
    }

    /// Trailing garbage after any well-formed message is rejected: the
    /// decoder owns the whole payload or refuses it.
    #[test]
    fn trailing_bytes_rejected(req in arb_request(), extra in 1u32..256) {
        let mut bytes = req.encode();
        bytes.push(extra as u8);
        prop_assert!(Request::decode(&bytes).is_err());
    }

    /// Arbitrary bytes never panic the decoders — they decode or they
    /// error, and hostile length claims fail before allocation.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let mut r = &bytes[..];
        let _ = read_frame(&mut r);
    }
}

/// Oversized headers are refused before any allocation: a 4-byte
/// header claiming 4 GiB must not make the reader reserve it.
#[test]
fn oversized_header_is_refused() {
    for claim in [MAX_FRAME as u32 + 1, u32::MAX] {
        let mut bytes = claim.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let mut r = &bytes[..];
        assert!(read_frame(&mut r).is_err(), "claim {claim} must be refused");
    }
}
