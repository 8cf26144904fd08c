//! A record's attribute maps, decoded on first access.
//!
//! Definition 2, the activity index and every pattern without a predicate
//! read only `lsn`, `wid`, `is-lsn` and `t`. So the text and binary readers
//! check each `αin`/`αout` map where it lies in their input, keep that
//! input in one shared buffer, and leave each record with the byte ranges
//! of its two maps. The first [`Maps::get`] decodes them into a
//! per-record cache; decoding cannot fail, because the reader already
//! checked the bytes. Records built in memory own their decoded maps.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use crate::attrs::AttrMap;
use crate::io::{binary, text};

/// A reader's input, shared by the records whose maps it holds.
pub(crate) enum Source {
    /// The text `read_text` parsed.
    Text(String),
    /// The bytes `read_binary` decoded.
    Binary(Bytes),
}

impl Source {
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            Source::Text(s) => s.as_bytes(),
            Source::Binary(b) => b.as_ref(),
        }
    }

    fn decode(&self, [in_start, in_end, out_start, out_end]: [usize; 4]) -> (AttrMap, AttrMap) {
        match self {
            Source::Text(s) => (
                text::decode_map(s.get(in_start..in_end).unwrap_or_default()),
                text::decode_map(s.get(out_start..out_end).unwrap_or_default()),
            ),
            Source::Binary(b) => (
                binary::decode_map(b.as_ref().get(in_start..in_end).unwrap_or_default()),
                binary::decode_map(b.as_ref().get(out_start..out_end).unwrap_or_default()),
            ),
        }
    }
}

/// `αin` and `αout` of one record.
#[derive(Clone)]
pub(crate) enum Maps {
    /// Maps built in memory, or read with both maps empty.
    Decoded(AttrMap, AttrMap),
    /// Maps still encoded in a reader's input.
    Raw(RawMaps),
}

/// The byte ranges of a record's two maps in a shared [`Source`], and
/// the maps once decoded.
#[derive(Clone)]
pub(crate) struct RawMaps {
    src: Arc<Source>,
    /// `αin` is `ranges[0]..ranges[1]`, `αout` is `ranges[2]..ranges[3]`.
    ranges: [u32; 4],
    /// Boxed, so an undecoded record pays one word for it.
    cell: OnceLock<Box<(AttrMap, AttrMap)>>,
}

impl RawMaps {
    fn decode(&self) -> (AttrMap, AttrMap) {
        self.src.decode(self.ranges.map(|r| r as usize))
    }
}

impl Maps {
    /// Two empty maps.
    pub(crate) fn empty() -> Maps {
        Maps::Decoded(AttrMap::new(), AttrMap::new())
    }

    /// The maps at `ranges` of `src` (`αin` then `αout`, as start/end
    /// pairs), which the caller has checked. Offsets beyond `u32` are
    /// decoded at once.
    pub(crate) fn raw(src: &Arc<Source>, ranges: [usize; 4]) -> Maps {
        let narrow = ranges.map(u32::try_from);
        if let [Ok(a), Ok(b), Ok(c), Ok(d)] = narrow {
            return Maps::Raw(RawMaps {
                src: Arc::clone(src),
                ranges: [a, b, c, d],
                cell: OnceLock::new(),
            });
        }
        let (input, output) = src.decode(ranges);
        Maps::Decoded(input, output)
    }

    /// Both maps, decoding and caching them on first access.
    pub(crate) fn get(&self) -> (&AttrMap, &AttrMap) {
        match self {
            Maps::Decoded(input, output) => (input, output),
            Maps::Raw(raw) => {
                let (input, output) = &**raw.cell.get_or_init(|| Box::new(raw.decode()));
                (input, output)
            }
        }
    }

    /// Calls `f` with both maps without filling the cache: maps not yet
    /// decoded are decoded into a temporary that `f` borrows.
    pub(crate) fn peek<R>(&self, f: impl FnOnce(&AttrMap, &AttrMap) -> R) -> R {
        if let Maps::Raw(raw) = self {
            if raw.cell.get().is_none() {
                let (input, output) = raw.decode();
                return f(&input, &output);
            }
        }
        let (input, output) = self.get();
        f(input, output)
    }

    /// Whether the maps are decoded (owned, or cached).
    #[cfg(test)]
    pub(crate) fn is_decoded(&self) -> bool {
        match self {
            Maps::Decoded(..) => true,
            Maps::Raw(raw) => raw.cell.get().is_some(),
        }
    }
}

impl PartialEq for Maps {
    fn eq(&self, other: &Maps) -> bool {
        if let (Maps::Raw(a), Maps::Raw(b)) = (self, other) {
            if Arc::ptr_eq(&a.src, &b.src) && a.ranges == b.ranges {
                return true;
            }
        }
        self.peek(|ai, ao| other.peek(|bi, bo| ai == bi && ao == bo))
    }
}

impl Eq for Maps {}

impl Hash for Maps {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.peek(|input, output| {
            input.hash(state);
            output.hash(state);
        });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;

    use super::*;
    use crate::io::{binary, csv, text, xes};
    use crate::{paper, Log, LogRecord};

    /// Figure 3 read back from text and from binary.
    fn read_back() -> [Log; 2] {
        let log = paper::figure3_log();
        [
            text::read_text(&text::write_text(&log)).unwrap(),
            binary::read_binary(binary::write_binary(&log)).unwrap(),
        ]
    }

    fn decoded(log: &Log) -> usize {
        log.iter().filter(|r| r.maps().is_decoded()).count()
    }

    #[test]
    fn a_record_stays_88_bytes() {
        assert_eq!(std::mem::size_of::<LogRecord>(), 88);
    }

    #[test]
    fn only_records_with_empty_maps_are_read_decoded() {
        let original = paper::figure3_log();
        let empty = original
            .iter()
            .filter(|r| r.input().is_empty() && r.output().is_empty())
            .count();
        assert!(empty > 0 && empty < original.len());
        for log in read_back() {
            assert_eq!(decoded(&log), empty);
            for r in log.iter() {
                assert_eq!(
                    matches!(r.maps(), Maps::Decoded(..)),
                    r.input().is_empty() && r.output().is_empty()
                );
            }
        }
    }

    #[test]
    fn comparing_hashing_formatting_and_writing_leave_maps_encoded() {
        let original = paper::figure3_log();
        for log in read_back() {
            let before = decoded(&log);
            assert_eq!(log, original);
            assert_eq!(original, log);
            assert_eq!(log, log.clone());
            for r in log.iter() {
                r.hash(&mut DefaultHasher::new());
                let _ = (r.to_string(), format!("{r:?}"));
            }
            let _ = (
                text::write_text(&log),
                binary::write_binary(&log),
                csv::write_csv(&log),
                xes::write_xes(&log),
                log.to_string(),
            );
            assert_eq!(decoded(&log), before);
        }
    }

    #[test]
    fn the_first_access_decodes_and_caches() {
        for log in read_back() {
            let before = decoded(&log);
            let r = log.iter().find(|r| !r.maps().is_decoded()).unwrap();
            let input = r.input().clone();
            assert!(r.maps().is_decoded());
            assert_eq!(decoded(&log), before + 1);
            // Decoded and cached maps compare, hash and print the same.
            let fresh = LogRecord::new(
                r.lsn(),
                r.wid(),
                r.is_lsn(),
                r.activity().clone(),
                input,
                r.output().clone(),
            );
            assert_eq!(r, &fresh);
            let hash = |r: &LogRecord| {
                let mut h = DefaultHasher::new();
                r.hash(&mut h);
                h.finish()
            };
            assert_eq!(hash(r), hash(&fresh));
            assert_eq!(format!("{r:?}"), format!("{fresh:?}"));
        }
    }
}
