//! Compact binary log encoding built on [`bytes`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "WLQ1"          4 bytes
//! count  u64             number of records
//! record*:
//!   lsn    u64
//!   wid    u64
//!   is_lsn u32
//!   act    str           (u32 length + UTF-8 bytes)
//!   input  map           (u32 count, then per entry: str name, value)
//!   output map
//! value: 1 tag byte then payload
//!   0 = undefined, 1 = bool (u8), 2 = int (i64), 3 = float (f64 bits),
//!   4 = str
//! ```

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use super::Interner;
use crate::attrs::AttrMap;
use crate::error::ParseLogError;
use crate::lazy::{Maps, Source};
use crate::log::Log;
use crate::record::LogRecord;
use crate::Value;

const MAGIC: &[u8; 4] = b"WLQ1";

/// Encodes a log into the binary format.
#[must_use]
pub fn write_binary(log: &Log) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 * log.len());
    buf.put_slice(MAGIC);
    buf.put_u64_le(log.len() as u64);
    for r in log.iter() {
        buf.put_u64_le(r.lsn().get());
        buf.put_u64_le(r.wid().get());
        buf.put_u32_le(r.is_lsn().get());
        put_str(&mut buf, r.activity().as_str());
        r.peek_maps(|input, output| {
            put_map(&mut buf, input);
            put_map(&mut buf, output);
        });
    }
    buf.freeze()
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_map(buf: &mut BytesMut, map: &AttrMap) {
    buf.put_u32_le(map.len() as u32);
    for (k, v) in map.iter() {
        put_str(buf, k.as_str());
        put_value(buf, v);
    }
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Undefined => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64_le(*i);
        }
        Value::Float(x) => {
            buf.put_u8(3);
            buf.put_u64_le(x.to_bits());
        }
        Value::Str(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
    }
}

/// Decodes a log from the binary format.
///
/// Activity names are decoded in place from `data` and interned, so equal
/// names share one allocation. Every attribute map is checked here, but
/// decoded only when a record's [`input`](LogRecord::input) or
/// [`output`](LogRecord::output) is first read: the log keeps `data` for
/// that, unless every map is empty.
///
/// # Errors
///
/// Returns [`ParseLogError::BadShape`] on truncated or corrupt input and
/// [`ParseLogError::Invalid`] if the decoded records violate Definition 2.
pub fn read_binary(data: Bytes) -> Result<Log, ParseLogError> {
    fn bad(message: impl Into<String>) -> ParseLogError {
        ParseLogError::BadShape {
            line: 0,
            message: message.into(),
        }
    }
    let src = Arc::new(Source::Binary(data));
    let mut data = Reader(src.as_bytes());
    let total = data.0.len();
    if total < 12 {
        return Err(bad("input shorter than header"));
    }
    if data.take(4) != Some(&MAGIC[..]) {
        return Err(bad("bad magic, not a WLQ1 binary log"));
    }
    let count = data.u64().ok_or_else(|| bad("input shorter than header"))?;
    let mut interner = Interner::default();
    let mut records = Vec::with_capacity(count.min(1 << 20) as usize);
    for i in 0..count {
        let err = || bad(format!("truncated record {i}"));
        if data.0.len() < 20 {
            return Err(err());
        }
        let record = data.record(&mut interner, &src, total).ok_or_else(err)?;
        records.push(record);
    }
    if !data.0.is_empty() {
        return Err(bad("trailing bytes after last record"));
    }
    Ok(Log::new(records)?)
}

/// A cursor over the undecoded rest of the input.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    /// Reads one record; its maps become ranges of `src`, whose `total`
    /// bytes this reader is a suffix of.
    fn record(
        &mut self,
        interner: &mut Interner,
        src: &Arc<Source>,
        total: usize,
    ) -> Option<LogRecord> {
        let lsn = self.u64()?;
        let wid = self.u64()?;
        let is_lsn = self.u32()?;
        let activity = interner.activity(self.str()?);
        let start = total - self.0.len();
        self.map(false)?;
        let mid = total - self.0.len();
        self.map(false)?;
        let end = total - self.0.len();
        // Two empty maps are two zero counts.
        let maps = if end - start == 8 {
            Maps::empty()
        } else {
            Maps::raw(src, [start, mid, mid, end])
        };
        Some(LogRecord::with_maps(lsn, wid, is_lsn, activity, maps))
    }

    /// Reads one map; with `decode` false it only checks the entries and
    /// returns an empty map.
    fn map(&mut self, decode: bool) -> Option<AttrMap> {
        let count = self.u32()?;
        let mut map = AttrMap::new();
        for _ in 0..count {
            let name = self.str()?;
            let value = self.value(decode)?;
            if decode {
                map.set(name, value);
            }
        }
        Some(map)
    }

    /// Reads one value; with `decode` false a string is checked but not
    /// copied, and comes back undefined.
    fn value(&mut self, decode: bool) -> Option<Value> {
        match self.u8()? {
            0 => Some(Value::Undefined),
            1 => Some(Value::Bool(self.u8()? != 0)),
            2 => Some(Value::Int(i64::from_le_bytes(self.array()?))),
            3 => Some(Value::Float(f64::from_bits(self.u64()?))),
            4 => {
                let s = self.str()?;
                Some(if decode {
                    Value::Str(Arc::from(s))
                } else {
                    Value::Undefined
                })
            }
            _ => None,
        }
    }
}

/// Decodes a map that [`read_binary`] has checked.
pub(crate) fn decode_map(bytes: &[u8]) -> AttrMap {
    Reader(bytes).map(true).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn figure3_round_trips_through_binary() {
        let log = paper::figure3_log();
        let bytes = write_binary(&log);
        let back = read_binary(bytes).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_binary(Bytes::from_static(b"NOPE00000000")).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let log = paper::figure3_log();
        let bytes = write_binary(&log);
        let truncated = bytes.slice(0..bytes.len() - 3);
        assert!(read_binary(truncated).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let log = paper::figure3_log();
        let mut raw = write_binary(&log).to_vec();
        raw.push(0xFF);
        assert!(read_binary(Bytes::from(raw)).is_err());
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(read_binary(Bytes::new()).is_err());
    }

    #[test]
    fn all_value_kinds_round_trip() {
        let mut b = crate::LogBuilder::new();
        let w = b.start_instance();
        b.append(
            w,
            "A",
            crate::attrs! {
                "u" => crate::Value::Undefined,
                "b" => true,
                "i" => -9i64,
                "f" => 2.5f64,
                "s" => "text",
            },
            crate::AttrMap::new(),
        )
        .unwrap();
        let log = b.build().unwrap();
        let back = read_binary(write_binary(&log)).unwrap();
        assert_eq!(back, log);
    }
}
