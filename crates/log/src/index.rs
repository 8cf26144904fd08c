//! The activity index and statistics every [`Log`](crate::Log) carries.
//!
//! Algorithm 2 of the paper assumes "an index structure for each workflow id
//! and activity … used to generate log records for an activity node in
//! constant time". [`LogIndex`] is that structure. It is built by
//! [`Log::new`](crate::Log::new) in the same pass over the records that
//! checks Definition 2, and the log owns it: evaluators, the planner and
//! the statistics borrow it through [`Log::index`](crate::Log::index) and
//! never walk the records again.
//!
//! Layout (instances in ascending wid order, each one a *row*):
//!
//! * an activity dictionary: dense [`ActivityId`]s, one interned
//!   [`Activity`] per distinct name;
//! * per-instance record ranges: `instance_offsets[r]..instance_offsets[r+1]`
//!   indexes `positions` (the record's place in lsn order) and `sequence`
//!   (its activity id), both in is-lsn order;
//! * per-(instance, activity) postings in CSR layout (compressed sparse
//!   rows): row `r` owns the cells `row_offsets[r]..row_offsets[r+1]`;
//!   cell `c` names one activity (`cell_activity[c]`, ascending within a
//!   row) and its is-lsns `postings[cell_offsets[c]..cell_offsets[c+1]]`;
//! * the counters [`LogStats`](crate::LogStats) and the planner read:
//!   executions and per-instance posting maxima per activity, the
//!   shortest and longest instance, and the number of completed ones.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::error::LogError;
use crate::names::{Activity, END_ACTIVITY, START_ACTIVITY};
use crate::record::{IsLsn, LogRecord, Wid};

/// The dense id of an activity name in one log's dictionary
/// ([`LogIndex::activity_id`]). Ids are assigned in order of first
/// occurrence and are only meaningful for the log that assigned them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(u32);

impl ActivityId {
    /// The id as an index into per-activity arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The inverted activity index of a log, with the log's statistics.
///
/// For each `(wid, activity)` it holds the ascending is-lsns at which that
/// activity executed, and for each instance its activity sequence (for
/// negated atomic patterns). Activity names are resolved to
/// [`ActivityId`]s once; every lookup after that is a slice of a flat
/// array. See the [module documentation](self) for the layout.
///
/// A `LogIndex` is never built on its own: [`Log::new`](crate::Log::new)
/// builds it while validating, and [`Log::index`](crate::Log::index)
/// lends it out.
///
/// # Examples
///
/// ```
/// use wlq_log::{paper, Wid, IsLsn};
///
/// let log = paper::figure3_log();
/// let idx = log.index();
/// // SeeDoctor executed at is-lsn 4 and 6 in instance 1 (l9, l11).
/// assert_eq!(idx.postings(Wid(1), "SeeDoctor"), &[IsLsn(4), IsLsn(6)]);
/// ```
#[derive(Debug, Clone)]
pub struct LogIndex {
    /// `ActivityId → name`.
    names: Vec<Activity>,
    /// `name → ActivityId`.
    ids: HashMap<Activity, ActivityId>,
    /// Instance ids, ascending; row `r` is instance `wids[r]`.
    wids: Vec<Wid>,
    /// `Some(w)` when the wids are exactly `w, w+1, …` (row = wid − w).
    dense_from: Option<u64>,
    /// Row `r`'s records are `instance_offsets[r]..instance_offsets[r+1]`
    /// of `positions` and `sequence`.
    instance_offsets: Vec<usize>,
    /// Each record's position in lsn order, instance by instance.
    positions: Vec<usize>,
    /// Each record's activity, instance by instance.
    sequence: Vec<ActivityId>,
    /// Row `r`'s cells are `row_offsets[r]..row_offsets[r+1]`.
    row_offsets: Vec<usize>,
    /// The activity of each cell, ascending within a row.
    cell_activity: Vec<ActivityId>,
    /// Cell `c`'s is-lsns are `postings[cell_offsets[c]..cell_offsets[c+1]]`.
    cell_offsets: Vec<usize>,
    postings: Vec<IsLsn>,
    /// Executions per activity.
    activity_counts: Vec<usize>,
    /// The largest per-instance posting count per activity.
    max_postings: Vec<usize>,
    completed: usize,
    min_len: usize,
    max_len: usize,
}

impl LogIndex {
    /// Checks conditions 2–4 of Definition 2 over `records` (already in
    /// lsn order `1..=n`) and builds the index in the same pass.
    ///
    /// The checks, their order and their errors are those of the
    /// record-by-record definition: for each record in lsn order, first
    /// "no record after END", then condition 2, then condition 3.
    pub(crate) fn build(records: &[LogRecord]) -> Result<Self, LogError> {
        let mut names: Vec<Activity> = Vec::new();
        let mut ids: HashMap<Activity, ActivityId> = HashMap::new();
        let (mut start_id, mut end_id) = (None, None);
        // Per instance slot, in order of first appearance.
        let mut slot_of: HashMap<Wid, u32> = HashMap::new();
        let mut slot_wids: Vec<Wid> = Vec::new();
        let mut next_is_lsn: Vec<IsLsn> = Vec::new();
        let mut closed: Vec<bool> = Vec::new();
        // Per record, in lsn order.
        let mut record_slot: Vec<u32> = Vec::with_capacity(records.len());
        let mut record_activity: Vec<ActivityId> = Vec::with_capacity(records.len());
        let mut activity_counts: Vec<usize> = Vec::new();

        for r in records {
            let wid = r.wid();
            let slot = match slot_of.entry(wid) {
                Entry::Occupied(e) => *e.get() as usize,
                Entry::Vacant(e) => {
                    e.insert(slot_wids.len() as u32);
                    slot_wids.push(wid);
                    next_is_lsn.push(IsLsn::FIRST);
                    closed.push(false);
                    slot_wids.len() - 1
                }
            };
            if closed[slot] {
                return Err(LogError::RecordAfterEnd { wid, lsn: r.lsn() });
            }
            let activity = match ids.get(r.activity().as_str()) {
                Some(&id) => id,
                None => {
                    let id = ActivityId(names.len() as u32);
                    let name = r.activity().clone();
                    match name.as_str() {
                        START_ACTIVITY => start_id = Some(id),
                        END_ACTIVITY => end_id = Some(id),
                        _ => {}
                    }
                    ids.insert(name.clone(), id);
                    names.push(name);
                    activity_counts.push(0);
                    id
                }
            };
            // Condition 2: is-lsn = 1 iff START.
            if (r.is_lsn() == IsLsn::FIRST) != (Some(activity) == start_id) {
                return Err(LogError::StartMismatch { lsn: r.lsn(), wid });
            }
            // Condition 3: consecutive is-lsn per instance, in lsn order.
            let expected = next_is_lsn[slot];
            if r.is_lsn() != expected {
                return Err(LogError::NonConsecutiveIsLsn {
                    wid,
                    expected,
                    found: r.is_lsn(),
                });
            }
            next_is_lsn[slot] = expected.next();
            // Condition 4 is checked when the instance's next record comes.
            if Some(activity) == end_id {
                closed[slot] = true;
            }
            activity_counts[activity.index()] += 1;
            record_slot.push(slot as u32);
            record_activity.push(activity);
        }
        drop(slot_of);

        // Rows in ascending wid order; instances usually start in that
        // order already.
        let mut order: Vec<u32> = (0..slot_wids.len() as u32).collect();
        if !slot_wids.windows(2).all(|w| w[0] < w[1]) {
            order.sort_unstable_by_key(|&s| slot_wids[s as usize]);
        }
        let mut row_of_slot = vec![0u32; order.len()];
        for (row, &slot) in order.iter().enumerate() {
            row_of_slot[slot as usize] = row as u32;
        }
        let wids: Vec<Wid> = order.iter().map(|&s| slot_wids[s as usize]).collect();
        let dense_from = match (wids.first(), wids.last()) {
            (Some(first), Some(last)) if last.get() - first.get() == wids.len() as u64 - 1 => {
                Some(first.get())
            }
            _ => None,
        };

        // Instance ranges, then a scatter of the records into them. Lsn
        // order within an instance is is-lsn order (condition 3).
        let mut instance_offsets = Vec::with_capacity(wids.len() + 1);
        instance_offsets.push(0);
        let (mut min_len, mut max_len, mut completed) = (usize::MAX, 0, 0);
        for &slot in &order {
            let len = (next_is_lsn[slot as usize].get() - 1) as usize;
            min_len = min_len.min(len);
            max_len = max_len.max(len);
            completed += usize::from(closed[slot as usize]);
            instance_offsets.push(instance_offsets[instance_offsets.len() - 1] + len);
        }
        let mut cursor: Vec<usize> = instance_offsets[..wids.len()].to_vec();
        let mut positions = vec![0usize; records.len()];
        let mut sequence = vec![ActivityId(0); records.len()];
        for (i, (&slot, &activity)) in record_slot.iter().zip(&record_activity).enumerate() {
            let at = &mut cursor[row_of_slot[slot as usize] as usize];
            positions[*at] = i;
            sequence[*at] = activity;
            *at += 1;
        }
        drop((record_slot, record_activity, cursor));

        // Postings: each row's (activity, is-lsn) pairs sorted, then cut
        // into one cell per activity.
        let mut row_offsets = Vec::with_capacity(wids.len() + 1);
        row_offsets.push(0);
        let mut cell_activity = Vec::new();
        let mut cell_offsets = Vec::new();
        let mut postings = Vec::with_capacity(records.len());
        let mut max_postings = vec![0usize; names.len()];
        let mut keys: Vec<u64> = Vec::new();
        for row in instance_offsets.windows(2) {
            keys.clear();
            keys.extend(
                sequence[row[0]..row[1]]
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (u64::from(a.0) << 32) | (i as u64 + 1)),
            );
            keys.sort_unstable();
            let mut cell = None;
            for &key in &keys {
                let activity = ActivityId((key >> 32) as u32);
                if cell != Some(activity) {
                    cell = Some(activity);
                    cell_activity.push(activity);
                    cell_offsets.push(postings.len());
                }
                postings.push(IsLsn(key as u32));
                let len = postings.len() - cell_offsets[cell_offsets.len() - 1];
                let max = &mut max_postings[activity.index()];
                *max = (*max).max(len);
            }
            row_offsets.push(cell_activity.len());
        }
        cell_offsets.push(postings.len());

        Ok(LogIndex {
            names,
            ids,
            wids,
            dense_from,
            instance_offsets,
            positions,
            sequence,
            row_offsets,
            cell_activity,
            cell_offsets,
            postings,
            activity_counts,
            max_postings,
            completed,
            min_len: if min_len == usize::MAX { 0 } else { min_len },
            max_len,
        })
    }

    /// The row of instance `wid`, if the log has it.
    fn row(&self, wid: Wid) -> Option<usize> {
        match self.dense_from {
            Some(first) => {
                let row = usize::try_from(wid.get().checked_sub(first)?).ok()?;
                (row < self.wids.len()).then_some(row)
            }
            None => self.wids.binary_search(&wid).ok(),
        }
    }

    /// The instance ids covered by the index, ascending.
    pub fn wids(&self) -> impl ExactSizeIterator<Item = Wid> + '_ {
        self.wids.iter().copied()
    }

    /// Number of instances.
    #[must_use]
    pub fn num_instances(&self) -> usize {
        self.wids.len()
    }

    /// Number of records.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.positions.len()
    }

    /// The id of `activity` in this log's dictionary, or `None` if the log
    /// never executes it.
    #[must_use]
    pub fn activity_id(&self, activity: &str) -> Option<ActivityId> {
        self.ids.get(activity).copied()
    }

    /// The name of an activity id of this log.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this log's index.
    #[must_use]
    pub fn activity(&self, id: ActivityId) -> &Activity {
        &self.names[id.index()]
    }

    /// The distinct activity names, indexed by [`ActivityId`] (order of
    /// first occurrence, not sorted).
    #[must_use]
    pub fn activities(&self) -> &[Activity] {
        &self.names
    }

    /// The ids of [`activities`](Self::activities), in the same order.
    pub fn activity_ids(&self) -> impl ExactSizeIterator<Item = ActivityId> {
        (0..self.names.len() as u32).map(ActivityId)
    }

    /// The is-lsns at which activity `id` executed in instance `wid`,
    /// ascending; empty if it never did.
    #[must_use]
    pub fn postings_of(&self, wid: Wid, id: ActivityId) -> &[IsLsn] {
        let Some(row) = self.row(wid) else {
            return &[];
        };
        let cells = self.row_offsets[row]..self.row_offsets[row + 1];
        match self.cell_activity[cells.clone()].binary_search(&id) {
            Ok(i) => {
                let cell = cells.start + i;
                &self.postings[self.cell_offsets[cell]..self.cell_offsets[cell + 1]]
            }
            Err(_) => &[],
        }
    }

    /// The is-lsns at which `activity` executed in instance `wid`,
    /// ascending; empty if it never did.
    #[must_use]
    pub fn postings(&self, wid: Wid, activity: &str) -> &[IsLsn] {
        self.activity_id(activity)
            .map_or(&[], |id| self.postings_of(wid, id))
    }

    /// The activity sequence of instance `wid`: position `i` holds the
    /// activity of is-lsn `i + 1` (empty if unknown).
    #[must_use]
    pub fn sequence(&self, wid: Wid) -> &[ActivityId] {
        self.row(wid).map_or(&[], |row| {
            &self.sequence[self.instance_offsets[row]..self.instance_offsets[row + 1]]
        })
    }

    /// The positions in lsn order (`lsn − 1`) of instance `wid`'s records,
    /// in is-lsn order (empty if unknown).
    #[must_use]
    pub fn record_positions(&self, wid: Wid) -> &[usize] {
        self.row(wid).map_or(&[], |row| {
            &self.positions[self.instance_offsets[row]..self.instance_offsets[row + 1]]
        })
    }

    /// Number of records of instance `wid` (0 if unknown).
    #[must_use]
    pub fn instance_len(&self, wid: Wid) -> usize {
        self.sequence(wid).len()
    }

    /// Returns `true` if instance `wid` has an `END` record.
    #[must_use]
    pub fn is_completed(&self, wid: Wid) -> bool {
        let end = self.activity_id(END_ACTIVITY);
        end.is_some() && self.sequence(wid).last().copied() == end
    }

    /// The activity executed at `(wid, is_lsn)`.
    #[must_use]
    pub fn activity_at(&self, wid: Wid, is_lsn: IsLsn) -> Option<&Activity> {
        let i = (is_lsn.get() as usize).checked_sub(1)?;
        self.sequence(wid).get(i).map(|&id| self.activity(id))
    }

    /// The is-lsns of instance `wid` whose activity is *not* `activity`
    /// (matches the negated atomic pattern `¬t`), ascending.
    #[must_use]
    pub fn complement_postings(&self, wid: Wid, activity: &str) -> Vec<IsLsn> {
        self.complement_of(wid, self.activity_id(activity))
            .collect()
    }

    /// Like [`complement_postings`](Self::complement_postings) for a
    /// resolved name (`None`: an activity the log never executes), without
    /// allocating.
    pub fn complement_of(
        &self,
        wid: Wid,
        id: Option<ActivityId>,
    ) -> impl Iterator<Item = IsLsn> + '_ {
        self.sequence(wid)
            .iter()
            .enumerate()
            .filter(move |&(_, &a)| Some(a) != id)
            .map(|(i, _)| IsLsn(i as u32 + 1))
    }

    /// Count of executions of `activity` across all instances; this is the
    /// selectivity statistic the optimizer uses.
    #[must_use]
    pub fn total_count(&self, activity: &str) -> usize {
        self.activity_id(activity)
            .map_or(0, |id| self.activity_counts[id.index()])
    }

    /// Executions of activity `id` across all instances.
    #[must_use]
    pub fn activity_count(&self, id: ActivityId) -> usize {
        self.activity_counts[id.index()]
    }

    /// The largest number of executions of activity `id` in one instance.
    #[must_use]
    pub fn max_instance_postings(&self, id: ActivityId) -> usize {
        self.max_postings[id.index()]
    }

    /// Number of instances closed by an `END` record.
    #[must_use]
    pub fn completed_instances(&self) -> usize {
        self.completed
    }

    /// Length of the shortest instance.
    #[must_use]
    pub fn min_instance_len(&self) -> usize {
        self.min_len
    }

    /// Length of the longest instance.
    #[must_use]
    pub fn max_instance_len(&self) -> usize {
        self.max_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::builder::LogBuilder;
    use crate::log::Log;

    fn sample() -> Log {
        let mut b = LogBuilder::new();
        let w1 = b.start_instance();
        let w2 = b.start_instance();
        for a in ["A", "B", "A"] {
            b.append(w1, a, AttrMap::new(), AttrMap::new()).unwrap();
        }
        b.append(w2, "B", AttrMap::new(), AttrMap::new()).unwrap();
        b.end_instance(w1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn postings_are_per_instance_and_sorted() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.postings(Wid(1), "A"), &[IsLsn(2), IsLsn(4)]);
        assert_eq!(idx.postings(Wid(1), "B"), &[IsLsn(3)]);
        assert_eq!(idx.postings(Wid(2), "A"), &[] as &[IsLsn]);
        assert_eq!(idx.postings(Wid(2), "B"), &[IsLsn(2)]);
    }

    #[test]
    fn start_and_end_are_indexed_like_activities() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.postings(Wid(1), "START"), &[IsLsn(1)]);
        assert_eq!(idx.postings(Wid(1), "END"), &[IsLsn(5)]);
        assert_eq!(idx.postings(Wid(2), "END"), &[] as &[IsLsn]);
    }

    #[test]
    fn activity_at_reads_the_sequence() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.activity_at(Wid(1), IsLsn(2)).unwrap().as_str(), "A");
        assert_eq!(idx.activity_at(Wid(1), IsLsn(5)).unwrap().as_str(), "END");
        assert_eq!(idx.activity_at(Wid(1), IsLsn(6)), None);
        assert_eq!(idx.activity_at(Wid(9), IsLsn(1)), None);
    }

    #[test]
    fn complement_postings_match_negated_atoms() {
        let log = sample();
        let idx = log.index();
        assert_eq!(
            idx.complement_postings(Wid(1), "A"),
            vec![IsLsn(1), IsLsn(3), IsLsn(5)]
        );
        assert_eq!(idx.complement_postings(Wid(9), "A"), Vec::<IsLsn>::new());
        // An activity the log never runs: every position is in the
        // complement.
        assert_eq!(idx.complement_postings(Wid(2), "Nope").len(), 2);
    }

    #[test]
    fn total_count_sums_instances() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.total_count("A"), 2);
        assert_eq!(idx.total_count("B"), 2);
        assert_eq!(idx.total_count("START"), 2);
        assert_eq!(idx.total_count("Nope"), 0);
    }

    #[test]
    fn instance_len_matches_log() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.instance_len(Wid(1)), 5);
        assert_eq!(idx.instance_len(Wid(2)), 2);
        assert_eq!(idx.num_instances(), 2);
        assert_eq!(idx.min_instance_len(), 2);
        assert_eq!(idx.max_instance_len(), 5);
        assert_eq!(idx.completed_instances(), 1);
        let a = idx.activity_id("A").unwrap();
        assert_eq!(idx.max_instance_postings(a), 2);
    }

    #[test]
    fn index_of_figure3_matches_example5() {
        let log = crate::paper::figure3_log();
        let idx = log.index();
        // Example 5: incL(SeeDoctor) = {l9, l11, l13, l17}.
        let mut hits: Vec<(Wid, IsLsn)> = Vec::new();
        for w in idx.wids() {
            for &p in idx.postings(w, "SeeDoctor") {
                hits.push((w, p));
            }
        }
        let lsns: Vec<u64> = hits
            .iter()
            .map(|&(w, p)| log.record(w, p).unwrap().lsn().get())
            .collect();
        assert_eq!(lsns, vec![9, 11, 13, 17]);
    }

    #[test]
    fn single_record_instances_index_cleanly() {
        let log = Log::new(vec![LogRecord::start(1, 1u64)]).unwrap();
        let idx = log.index();
        assert_eq!(idx.instance_len(Wid(1)), 1);
        assert_eq!(idx.postings(Wid(1), "START"), &[IsLsn(1)]);
    }

    #[test]
    fn sparse_and_unordered_wids_are_looked_up() {
        // Instances start in the order 30, 7, 1000: rows are sorted by wid
        // and the lookup falls back to binary search.
        let rs = vec![
            LogRecord::start(1, 30u64),
            LogRecord::start(2, 7u64),
            LogRecord::new(3u64, 30u64, 2u32, "A", AttrMap::new(), AttrMap::new()),
            LogRecord::start(4, 1000u64),
        ];
        let log = Log::new(rs).unwrap();
        let idx = log.index();
        assert_eq!(idx.wids().collect::<Vec<_>>(), [Wid(7), Wid(30), Wid(1000)]);
        assert_eq!(idx.postings(Wid(30), "A"), &[IsLsn(2)]);
        assert_eq!(idx.instance_len(Wid(1000)), 1);
        assert_eq!(idx.instance_len(Wid(8)), 0);
        assert_eq!(log.record(Wid(30), IsLsn(2)).unwrap().lsn().get(), 3);
    }
}
