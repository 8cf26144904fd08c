//! # wlq-engine — incident-pattern query evaluation
//!
//! The evaluation half of *"Querying Workflow Logs"*: given a
//! [`wlq_pattern::Pattern`] and a [`wlq_log::Log`], compute the incident
//! set `incL(p)` of Definition 4.
//!
//! * [`Incident`] / [`IncidentSet`] — the semantic objects.
//! * [`naive`] — the paper's Algorithm 1 operators, complexity-faithful:
//!   the reference oracle ([`Strategy::NaivePaper`]).
//! * [`batch`] / [`kernels`] — the physical layer: flat arena-backed
//!   [`IncidentBatch`] storage with zero-copy operator kernels, producing
//!   the same incident sets.
//! * [`planner`] — cost-based query planning: Theorem 2–5 rewrites, a
//!   Lemma-1-style cost model, and per-node physical operator selection.
//!   Its [`PhysicalPlan`] is the one executor: [`Strategy::Planned`] runs
//!   the cheapest rewrite, [`Strategy::Batch`] the tree as written.
//! * [`IncidentTree`] — Definition 6 trees with post-order evaluation
//!   (Algorithms 2–3) and per-node traces.
//! * [`Evaluator`] — plans a query once and runs the plan per instance
//!   with short-circuiting (or Algorithm 1 under the oracle);
//!   [`evaluate_parallel`] distributes instances over threads.
//! * [`StreamingEvaluator`] — incremental evaluation over an append-only
//!   log (runtime monitoring).
//! * [`profile_evaluation`] (cargo feature `profiling`, on by default) —
//!   instrumented mirrors of the executor and the oracle recording
//!   per-operator [`wlq_obs::NodeMetrics`] and per-worker skew without
//!   perturbing the unprofiled hot path.
//! * [`Query`] — parse-once, run-many facade over the [`Evaluator`] with
//!   counting/grouping projections.
//!
//! ## Quick start
//!
//! ```
//! use wlq_engine::Query;
//! use wlq_log::paper;
//!
//! let log = paper::figure3_log();
//! let anomalies = Query::parse("UpdateRefer -> GetReimburse")?;
//! assert_eq!(anomalies.count(&log)?, 1); // instance 2 misbehaves
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bindings;
mod bounded_equiv;
mod counting;
mod error;
mod eval;
mod explain;
mod incident;
mod incident_set;
mod mining;
#[cfg(test)]
mod optimized;
mod parallel;
#[cfg(feature = "profiling")]
mod profile;
mod query;
mod resolve;
mod spans;
mod streaming;
mod timeline;
mod tree;

pub mod batch;
pub mod kernels;
pub mod naive;
pub mod planner;

pub use batch::{BatchArena, IncidentBatch, IncidentRef};
pub use bindings::{BoundIncident, LabelledPattern};
pub use bounded_equiv::{equivalent_up_to, BoundedEquiv};
pub use counting::fast_count;
pub use error::EngineError;
pub use eval::{combine, leaf_batch, leaf_incidents, Evaluator, Strategy};
pub use explain::{Explain, ExplainRow};
pub use incident::Incident;
pub use incident_set::IncidentSet;
pub use kernels::{combine_batch, combine_batch_into};
pub use mining::{mine_relations, MinedRelation};
pub use parallel::evaluate_parallel;
pub use planner::{
    JoinShape, PhysOp, PhysicalPlan, PlanCost, PlanNode, PlanRow, PlanStats, Planner,
    RewriteCandidate,
};
#[cfg(feature = "profiling")]
pub use profile::profile_evaluation;
pub use query::{Query, QueryProfile};
pub use resolve::{IncidentInLog, IncidentSetInLog};
pub use spans::SpanStats;
pub use streaming::{SharedStreamingEvaluator, StreamingEvaluator};
pub use timeline::{timeline, TimelinePoint};
pub use tree::{EvalTrace, IncidentTree, Node, NodeTrace};
