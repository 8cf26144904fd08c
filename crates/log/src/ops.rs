//! Whole-log operations: merging, prefixes, and instance filtering.
//!
//! These are the warehouse-free counterparts of ETL plumbing: combine the
//! logs of several engines into one queryable log, or look at a log "as
//! of" an earlier point in time.

use std::collections::BTreeMap;

use crate::error::LogError;
use crate::log::Log;
use crate::record::{LogRecord, Lsn, Wid};

impl Log {
    /// Merges several logs into one, interleaving records in their
    /// original per-log order (round-robin by global position, stable
    /// within each input) and renumbering `lsn`s to `1..`. Workflow
    /// instance ids are re-assigned densely in order of first appearance
    /// so instances from different inputs never collide.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Empty`] if `logs` is empty. Any other error
    /// would indicate an invariant bug, since each input is already a
    /// valid log and the merge preserves per-instance record order.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlq_log::{attrs, Log, LogBuilder};
    ///
    /// let mut a = LogBuilder::new();
    /// let w = a.start_instance();
    /// a.append(w, "A", attrs! {}, attrs! {})?;
    /// let a = a.build()?;
    ///
    /// let mut b = LogBuilder::new();
    /// let w = b.start_instance();
    /// b.append(w, "B", attrs! {}, attrs! {})?;
    /// let b = b.build()?;
    ///
    /// let merged = Log::merge([a, b])?;
    /// assert_eq!(merged.len(), 4);
    /// assert_eq!(merged.num_instances(), 2);
    /// # Ok::<(), wlq_log::LogError>(())
    /// ```
    pub fn merge(logs: impl IntoIterator<Item = Log>) -> Result<Log, LogError> {
        let sources: Vec<Vec<LogRecord>> = logs.into_iter().map(Log::into_records).collect();
        if sources.is_empty() {
            return Err(LogError::Empty);
        }
        let total: usize = sources.iter().map(Vec::len).sum();
        let mut wid_map: BTreeMap<(usize, Wid), Wid> = BTreeMap::new();
        let mut next_wid = 0u64;
        let mut merged: Vec<LogRecord> = Vec::with_capacity(total);

        // Round-robin over the sources to interleave fairly; within each
        // source, original order (and thus per-instance order) is kept.
        let mut cursors = vec![0usize; sources.len()];
        while merged.len() < total {
            for (src_idx, source) in sources.iter().enumerate() {
                let cursor = cursors[src_idx];
                if cursor >= source.len() {
                    continue;
                }
                cursors[src_idx] += 1;
                let record = &source[cursor];
                let wid = *wid_map.entry((src_idx, record.wid())).or_insert_with(|| {
                    next_wid += 1;
                    Wid(next_wid)
                });
                let mut record = record.clone();
                record.set_lsn(Lsn(merged.len() as u64 + 1));
                record.set_wid(wid);
                merged.push(record);
            }
        }
        Log::new(merged)
    }

    /// The log "as of" global sequence number `upto` (inclusive): the
    /// prefix containing records `1..=upto`. Since every prefix of a
    /// valid log is valid (END records stay last, is-lsns stay
    /// consecutive), this always succeeds for `upto ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Empty`] when `upto` is 0.
    pub fn prefix(&self, upto: Lsn) -> Result<Log, LogError> {
        let n = (upto.get() as usize).min(self.len());
        Log::new(self.records()[..n].to_vec())
    }

    /// A new log containing only the instances accepted by `keep`,
    /// renumbering `lsn`s to `1..` but keeping `wid`s and record order.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Empty`] when no instance is kept.
    pub fn filter_instances(&self, mut keep: impl FnMut(Wid) -> bool) -> Result<Log, LogError> {
        let mut records: Vec<LogRecord> = Vec::new();
        for record in self.iter() {
            if keep(record.wid()) {
                let mut r = record.clone();
                r.set_lsn(Lsn(records.len() as u64 + 1));
                records.push(r);
            }
        }
        Log::new(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;
    use crate::builder::LogBuilder;
    use crate::paper;
    use crate::record::IsLsn;

    fn two_instance_log(acts: &[&str]) -> Log {
        let mut b = LogBuilder::new();
        let w1 = b.start_instance();
        let w2 = b.start_instance();
        for (i, act) in acts.iter().enumerate() {
            let w = if i % 2 == 0 { w1 } else { w2 };
            b.append(w, *act, attrs! {}, attrs! {}).unwrap();
        }
        b.end_instance(w1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn merge_renumbers_wids_and_lsns() {
        let a = two_instance_log(&["A", "B"]);
        let b = two_instance_log(&["C", "D", "E"]);
        let merged = Log::merge([a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.len(), a.len() + b.len());
        assert_eq!(merged.num_instances(), 4);
        // lsns are 1..=len (validated by Log::new), wids dense 1..=4.
        assert_eq!(
            merged.wids().map(Wid::get).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn merge_preserves_per_instance_sequences() {
        let a = two_instance_log(&["A", "B", "C"]);
        let b = paper::figure3_log();
        let merged = Log::merge([a, b.clone()]).unwrap();
        // Find the merged instance matching Figure 3's wid 2 by looking
        // for the UpdateRefer activity.
        let update = merged
            .iter()
            .find(|r| r.activity().as_str() == "UpdateRefer")
            .unwrap();
        let acts: Vec<&str> = merged
            .instance(update.wid())
            .map(|r| r.activity().as_str())
            .collect();
        let orig: Vec<&str> = b.instance(Wid(2)).map(|r| r.activity().as_str()).collect();
        assert_eq!(acts, orig);
    }

    #[test]
    fn merge_of_single_log_is_isomorphic() {
        let log = paper::figure3_log();
        let merged = Log::merge([log.clone()]).unwrap();
        assert_eq!(merged.len(), log.len());
        // Same activity multiset per instance count.
        assert_eq!(merged.num_instances(), log.num_instances());
    }

    #[test]
    fn merge_of_nothing_is_an_error() {
        assert_eq!(Log::merge(Vec::<Log>::new()), Err(LogError::Empty));
    }

    #[test]
    fn prefix_is_valid_and_truncates() {
        let log = paper::figure3_log();
        let prefix = log.prefix(Lsn(8)).unwrap();
        assert_eq!(prefix.len(), 8);
        assert_eq!(prefix.num_instances(), 3);
        // wid 1 has records l1, l3, l4 in the prefix.
        assert_eq!(prefix.instance_len(Wid(1)), 3);
        // Beyond the end clamps.
        assert_eq!(log.prefix(Lsn(999)).unwrap().len(), 20);
        assert_eq!(log.prefix(Lsn(0)), Err(LogError::Empty));
    }

    #[test]
    fn every_prefix_of_a_valid_log_is_valid() {
        let log = two_instance_log(&["A", "B", "C", "D", "E"]);
        for upto in 1..=log.len() as u64 {
            let p = log.prefix(Lsn(upto)).unwrap();
            assert_eq!(p.len(), upto as usize);
        }
    }

    #[test]
    fn filter_instances_keeps_selected_wids() {
        let log = paper::figure3_log();
        let only2 = log.filter_instances(|w| w == Wid(2)).unwrap();
        assert_eq!(only2.num_instances(), 1);
        assert_eq!(only2.instance_len(Wid(2)), 9);
        assert_eq!(only2.records()[0].lsn(), Lsn(1));
        assert_eq!(only2.records()[0].is_lsn(), IsLsn(1));
        assert!(log.filter_instances(|_| false).is_err());
    }
}
