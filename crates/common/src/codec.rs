//! Compact binary codec for checkpoints, the command log and the wire.
//!
//! Hand-rolled rather than pulling in a serde format: every byte format
//! of this system (snapshots, checkpoint files, the manifest,
//! command-log records, wire messages) is a simple sequence of
//! primitives, and owning the byte layout makes the recovery code
//! auditable. Every format writes and reads through this module only.
//!
//! Layout conventions:
//! * integers are little-endian fixed width, except lengths and counts
//!   which use LEB128-style varints;
//! * every [`Value`] is prefixed by a one-byte type tag;
//! * a **sequence** is a varint count followed by that many items
//!   ([`Encoder::put_seq`], [`Decoder::get_seq`]);
//! * an **optional** `i64` is a tag byte, `0` for none or `1` followed
//!   by the value ([`Encoder::put_opt_i64`]);
//! * composite encoders ([`Encoder`]) append to a growable buffer;
//!   [`Decoder`] reads from a slice and tracks its offset, failing with
//!   `Error::Codec` on truncation or bad tags (never panicking on
//!   malformed input).
//!
//! **The count rule.** A decoder trusts no count it reads. Every item of
//! a sequence has a smallest possible encoding — one byte for a value
//! or a tuple, eight for a `u64`, nine for a name and a `u64` — and a
//! count larger than the bytes left divided by that minimum is
//! corruption. [`Decoder::get_count`] rejects it before anything is
//! reserved from it, so a hostile count can neither over-allocate nor
//! fail deep inside an element with a misleading message.

use crate::error::{Error, Result};
use crate::schema::{Column, DataType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Fresh encoder with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: Vec::with_capacity(cap) }
    }

    /// Finishes encoding and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Clears the buffer for reuse, keeping its capacity. Hot paths
    /// (e.g. the command log) keep one `Encoder` alive and `reset` it
    /// per record instead of allocating a fresh buffer.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// The bytes encoded so far, without consuming the encoder.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an f64 as its IEEE bits.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes whatever `body` encodes as [`Encoder::put_bytes`] would
    /// write those bytes, without a second buffer: the body is encoded
    /// in place and its varint length slid in before it once known.
    /// Returns what `body` returns.
    pub fn put_bytes_with<R>(&mut self, body: impl FnOnce(&mut Encoder) -> R) -> R {
        let at = self.buf.len();
        let out = body(self);
        let mut len = Encoder::with_capacity(10);
        len.put_varint((self.buf.len() - at) as u64);
        self.buf.splice(at..at, len.buf);
        out
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes a sequence: the varint count, then each item through
    /// `put`. Read back with [`Decoder::get_seq`].
    pub fn put_seq<I>(&mut self, items: I, mut put: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator<IntoIter: ExactSizeIterator>,
    {
        let items = items.into_iter();
        self.put_varint(items.len() as u64);
        for item in items {
            put(self, item);
        }
    }

    /// Writes an optional `i64`: tag `0`, or tag `1` then the value.
    pub fn put_opt_i64(&mut self, v: Option<i64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_i64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Writes whatever `body` encodes as a **frame**: a fixed-width
    /// little-endian u64 byte length, then the bytes. The length is
    /// back-patched into this same buffer once `body` returns, so a
    /// frame costs eight bytes and no second buffer. A reader can step
    /// over a frame without decoding it ([`Decoder::get_framed`]).
    pub fn put_framed(&mut self, body: impl FnOnce(&mut Encoder)) {
        let at = self.buf.len();
        self.put_u64(0);
        body(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes a tagged [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(TAG_NULL),
            Value::Int(i) => {
                self.put_u8(TAG_INT);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(TAG_FLOAT);
                self.put_f64(*f);
            }
            Value::Text(s) => {
                self.put_u8(TAG_TEXT);
                self.put_str(s);
            }
            Value::Bool(false) => self.put_u8(TAG_BOOL_FALSE),
            Value::Bool(true) => self.put_u8(TAG_BOOL_TRUE),
        }
    }

    /// Writes a tuple as a sequence of tagged values.
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.put_seq(t.values(), Self::put_value);
    }

    /// Writes a schema: a sequence of columns.
    pub fn put_schema(&mut self, s: &Schema) {
        self.put_seq(s.columns(), |e, c| {
            e.put_str(&c.name);
            e.put_u8(match c.dtype {
                DataType::Int => 0,
                DataType::Float => 1,
                DataType::Text => 2,
                DataType::Bool => 3,
            });
            e.put_u8(u8::from(c.nullable));
        });
    }
}

/// Slice-backed binary decoder.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once all input is consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Codec(format!(
                "truncated input: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("slice of length 4")))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("slice of length 8")))
    }

    /// Reads a little-endian i64.
    pub fn get_i64(&mut self) -> Result<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("slice of length 8")))
    }

    /// Reads an f64 from IEEE bits.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an unsigned LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut shift = 0u32;
        let mut out = 0u64;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(Error::Codec("varint overflows u64".into()));
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_varint()? as usize;
        self.take(len)
    }

    /// Reads one frame written by [`Encoder::put_framed`] and returns
    /// its bytes undecoded. A length beyond the remaining input is an
    /// error.
    pub fn get_framed(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u64()?;
        let len = usize::try_from(len)
            .map_err(|_| Error::Codec(format!("frame length {len} exceeds address space")))?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|e| Error::Codec(format!("invalid utf-8: {e}")))
    }

    /// Reads the count of a sequence whose items each take at least
    /// `min_bytes`, bounded by the input left (the module's count
    /// rule): a larger count is an error naming `what`, raised before
    /// anything is reserved from it.
    pub fn get_count(&mut self, min_bytes: usize, what: &str) -> Result<usize> {
        let n = self.get_varint()?;
        let left = self.remaining();
        if n > (left / min_bytes.max(1)) as u64 {
            return Err(Error::Codec(format!(
                "{what} count {n} exceeds the {left} bytes left"
            )));
        }
        Ok(n as usize)
    }

    /// Reads a sequence written by [`Encoder::put_seq`]: a count
    /// checked by [`Decoder::get_count`], then each item through `get`.
    pub fn get_seq<T>(
        &mut self,
        min_bytes: usize,
        what: &str,
        mut get: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.get_count(min_bytes, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// Reads an optional `i64` written by [`Encoder::put_opt_i64`].
    pub fn get_opt_i64(&mut self) -> Result<Option<i64>> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_i64()?)),
            t => Err(Error::Codec(format!("bad option tag {t}"))),
        }
    }

    /// Reads a tagged [`Value`].
    pub fn get_value(&mut self) -> Result<Value> {
        match self.get_u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_INT => Ok(Value::Int(self.get_i64()?)),
            TAG_FLOAT => Ok(Value::Float(self.get_f64()?)),
            TAG_TEXT => Ok(Value::Text(self.get_str()?)),
            TAG_BOOL_FALSE => Ok(Value::Bool(false)),
            TAG_BOOL_TRUE => Ok(Value::Bool(true)),
            t => Err(Error::Codec(format!("unknown value tag {t}"))),
        }
    }

    /// Reads a tuple.
    pub fn get_tuple(&mut self) -> Result<Tuple> {
        // Collected straight into the row's one allocation, not through
        // a `Vec`: a tagged value takes at least its tag byte.
        let n = self.get_count(1, "tuple value")?;
        Tuple::try_collect((0..n).map(|_| self.get_value()))
    }

    /// Reads a schema.
    pub fn get_schema(&mut self) -> Result<Schema> {
        // A column is at least a name length, a type tag and a
        // nullability byte.
        let cols = self.get_seq(3, "schema column", |d| {
            let name = d.get_str()?;
            let dtype = match d.get_u8()? {
                0 => DataType::Int,
                1 => DataType::Float,
                2 => DataType::Text,
                3 => DataType::Bool,
                t => return Err(Error::Codec(format!("unknown dtype tag {t}"))),
            };
            Ok(Column { name, dtype, nullable: d.get_u8()? != 0 })
        })?;
        Schema::new(cols).map_err(|e| Error::Codec(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn primitives_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX);
        e.put_i64(-42);
        e.put_f64(2.5);
        e.put_str("héllo");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap(), 2.5);
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert!(d.is_exhausted());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut e = Encoder::new();
            e.put_varint(v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.get_varint().unwrap(), v, "varint {v}");
            assert!(d.is_exhausted());
        }
    }

    #[test]
    fn values_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Text("streaming".into()),
            Value::Bool(true),
            Value::Bool(false),
        ];
        let mut e = Encoder::new();
        for v in &vals {
            e.put_value(v);
        }
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        for v in &vals {
            let got = d.get_value().unwrap();
            // NaN == NaN under total order semantics.
            assert_eq!(got.cmp_total(v), std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn tuple_roundtrip() {
        let t = tuple![1i64, "x", 2.5, true];
        let mut e = Encoder::new();
        e.put_tuple(&t);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).get_tuple().unwrap(), t);
    }

    #[test]
    fn schema_roundtrip() {
        let s = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("name", DataType::Text),
            Column::new("ok", DataType::Bool),
            Column::new("w", DataType::Float),
        ])
        .unwrap();
        let mut e = Encoder::new();
        e.put_schema(&s);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).get_schema().unwrap(), s);
    }

    #[test]
    fn truncated_input_errors_not_panics() {
        let mut e = Encoder::new();
        e.put_tuple(&tuple![1i64, "abcdef"]);
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(d.get_tuple().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tag_errors() {
        let bytes = [0xffu8];
        assert!(Decoder::new(&bytes).get_value().is_err());
    }

    #[test]
    fn reset_reuses_buffer() {
        let mut e = Encoder::with_capacity(64);
        e.put_str("first");
        let first = e.as_bytes().to_vec();
        e.reset();
        assert!(e.is_empty());
        e.put_str("first");
        assert_eq!(e.as_bytes(), &first[..]);
    }

    #[test]
    fn bytes_written_in_place_equal_put_bytes() {
        // Lengths whose varint takes one, two and three bytes, nested.
        for n in [0usize, 127, 128, 20_000] {
            let body: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let mut got = Encoder::new();
            got.put_u8(1);
            let r = got.put_bytes_with(|e| {
                e.put_u8(2);
                e.put_bytes_with(|e| body.iter().for_each(|&b| e.put_u8(b)));
                n
            });
            let (mut inner, mut want) = (Encoder::new(), Encoder::new());
            inner.put_u8(2);
            inner.put_bytes(&body);
            want.put_u8(1);
            want.put_bytes(inner.as_bytes());
            assert_eq!((r, got.as_bytes()), (n, want.as_bytes()), "{n} bytes");
        }
    }

    #[test]
    fn frames_nest_skip_and_reject_hostile_lengths() {
        let mut e = Encoder::new();
        e.put_u8(9);
        e.put_framed(|e| {
            e.put_str("outer");
            e.put_framed(|e| e.put_u32(7));
        });
        e.put_framed(|_| {});
        e.put_u8(1);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 9);
        let mut outer = Decoder::new(d.get_framed().unwrap());
        assert_eq!(outer.get_str().unwrap(), "outer");
        assert_eq!(Decoder::new(outer.get_framed().unwrap()).get_u32().unwrap(), 7);
        assert!(outer.is_exhausted());
        assert!(d.get_framed().unwrap().is_empty());
        assert_eq!(d.get_u8().unwrap(), 1);
        // A length past the input (or past usize) is an error.
        for len in [2u64, u64::MAX] {
            let mut e = Encoder::new();
            e.put_u64(len);
            e.put_u8(0);
            assert!(Decoder::new(&e.finish()).get_framed().is_err());
        }
    }

    #[test]
    fn a_count_is_bounded_by_the_bytes_left_over_the_item_minimum() {
        // Three bytes left after the count, items of at least two: one
        // fits, and a count of exactly 3 / 2 = 1 passes.
        let with_count = |n: u64| {
            let mut e = Encoder::new();
            e.put_varint(n);
            let mut bytes = e.finish();
            bytes.extend_from_slice(&[0; 3]);
            bytes
        };
        assert_eq!(Decoder::new(&with_count(1)).get_count(2, "pair").unwrap(), 1);
        let err = Decoder::new(&with_count(2)).get_count(2, "pair").unwrap_err();
        assert!(err.to_string().contains("pair count 2"), "{err}");
        // A minimum of one: every byte left may be an item.
        assert_eq!(Decoder::new(&with_count(3)).get_count(1, "byte").unwrap(), 3);
        assert!(Decoder::new(&with_count(4)).get_count(1, "byte").is_err());
        // A huge count fails on the count, not on a reservation.
        assert!(Decoder::new(&with_count(u64::MAX)).get_count(8, "word").is_err());
    }

    #[test]
    fn sequences_nest_and_a_cut_inside_an_item_is_an_error() {
        let outer: Vec<Vec<i64>> = vec![vec![1, -2], vec![], vec![i64::MAX]];
        let mut e = Encoder::new();
        e.put_seq(&outer, |e, inner| e.put_seq(inner, |e, &v| e.put_i64(v)));
        let bytes = e.finish();
        let decode = |b: &[u8]| {
            let mut d = Decoder::new(b);
            d.get_seq(1, "list", |d| d.get_seq(8, "number", Decoder::get_i64))
        };
        assert_eq!(decode(&bytes).unwrap(), outer);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn optional_i64_roundtrips_and_rejects_a_bad_tag() {
        let mut e = Encoder::new();
        for v in [None, Some(-7), Some(i64::MIN)] {
            e.put_opt_i64(v);
        }
        let bytes = e.finish();
        assert_eq!(bytes[..2], [0, 1]);
        let mut d = Decoder::new(&bytes);
        for v in [None, Some(-7), Some(i64::MIN)] {
            assert_eq!(d.get_opt_i64().unwrap(), v);
        }
        assert!(d.is_exhausted());
        let err = Decoder::new(&[2u8]).get_opt_i64().unwrap_err();
        assert!(err.to_string().contains("bad option tag 2"), "{err}");
    }

    #[test]
    fn hostile_length_rejected() {
        // varint claims a huge tuple arity with no payload behind it.
        let mut e = Encoder::new();
        e.put_varint(u64::MAX);
        let bytes = e.finish();
        assert!(Decoder::new(&bytes).get_tuple().is_err());
        assert!(Decoder::new(&bytes).get_schema().is_err());
    }
}
