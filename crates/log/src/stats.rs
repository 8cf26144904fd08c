//! Descriptive statistics over a log, used for reporting and by the
//! cost-based optimizer (activity selectivities).

use std::collections::BTreeMap;
use std::fmt;

use crate::log::Log;
use crate::names::Activity;

/// Summary statistics of a [`Log`].
///
/// The counters are kept by the log's [`LogIndex`](crate::LogIndex), which
/// [`Log::new`] fills in while it validates the records;
/// [`compute`](Self::compute) copies them out without walking the log.
///
/// ```
/// use wlq_log::{paper, LogStats};
///
/// let stats = LogStats::compute(&paper::figure3_log());
/// assert_eq!(stats.num_records, 20);
/// assert_eq!(stats.num_instances, 3);
/// assert_eq!(stats.activity_count("SeeDoctor"), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogStats {
    /// Total number of records, `|L|`.
    pub num_records: usize,
    /// Number of distinct workflow instances.
    pub num_instances: usize,
    /// Number of instances closed by an `END` record.
    pub completed_instances: usize,
    /// Executions per activity name (including `START`/`END`).
    pub activity_counts: BTreeMap<Activity, usize>,
    /// Length of the shortest instance.
    pub min_instance_len: usize,
    /// Length of the longest instance.
    pub max_instance_len: usize,
}

impl LogStats {
    /// Reads the statistics off the log's prebuilt counters: `O(activities)`,
    /// independent of the number of records.
    #[must_use]
    pub fn compute(log: &Log) -> Self {
        let index = log.index();
        let activity_counts = index
            .activity_ids()
            .map(|id| (index.activity(id).clone(), index.activity_count(id)))
            .collect();
        LogStats {
            num_records: log.len(),
            num_instances: index.num_instances(),
            completed_instances: index.completed_instances(),
            activity_counts,
            min_instance_len: index.min_instance_len(),
            max_instance_len: index.max_instance_len(),
        }
    }

    /// Executions of `activity`, 0 if it never ran.
    #[must_use]
    pub fn activity_count(&self, activity: &str) -> usize {
        self.activity_counts.get(activity).copied().unwrap_or(0)
    }

    /// The fraction of records carrying `activity` — the selectivity
    /// statistic driving join-order choices in the optimizer.
    #[must_use]
    pub fn selectivity(&self, activity: &str) -> f64 {
        if self.num_records == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.activity_count(activity) as f64 / self.num_records as f64
        }
    }

    /// Mean records per instance.
    #[must_use]
    pub fn mean_instance_len(&self) -> f64 {
        if self.num_instances == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.num_records as f64 / self.num_instances as f64
        }
    }
}

impl fmt::Display for LogStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "records: {}, instances: {} ({} completed), instance length: {}..{} (mean {:.1})",
            self.num_records,
            self.num_instances,
            self.completed_instances,
            self.min_instance_len,
            self.max_instance_len,
            self.mean_instance_len(),
        )?;
        for (act, n) in &self.activity_counts {
            writeln!(f, "  {act}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn figure3_statistics() {
        let stats = LogStats::compute(&paper::figure3_log());
        assert_eq!(stats.num_records, 20);
        assert_eq!(stats.num_instances, 3);
        assert_eq!(stats.completed_instances, 0);
        assert_eq!(stats.activity_count("START"), 3);
        assert_eq!(stats.activity_count("SeeDoctor"), 4);
        assert_eq!(stats.activity_count("PayTreatment"), 3);
        assert_eq!(stats.activity_count("UpdateRefer"), 1);
        assert_eq!(stats.activity_count("Missing"), 0);
        assert_eq!(stats.min_instance_len, 2);
        assert_eq!(stats.max_instance_len, 9);
    }

    #[test]
    fn selectivity_and_mean_length() {
        let stats = LogStats::compute(&paper::figure3_log());
        let sel = stats.selectivity("SeeDoctor");
        assert!((sel - 0.2).abs() < 1e-12);
        assert!((stats.mean_instance_len() - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.selectivity("Missing"), 0.0);
    }

    #[test]
    fn display_lists_every_activity() {
        let stats = LogStats::compute(&paper::figure3_log());
        let text = stats.to_string();
        assert!(text.contains("records: 20"));
        assert!(text.contains("SeeDoctor: 4"));
        assert!(text.contains("UpdateRefer: 1"));
    }
}
