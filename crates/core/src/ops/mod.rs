//! Incremental relational algebra over sketch-annotated deltas (paper §5)
//! — a composable delta circuit, not just a tree of binary operators.
//!
//! A query plan is compiled into a circuit of [`IncNode`]s. Each
//! maintenance run pushes the annotated table deltas bottom-up: every
//! operator consumes its input deltas, updates its state `S`, and emits
//! an output delta (Def. 4.5). Deltas are bags with *signed*
//! multiplicities, so retraction (deletes, high-churn insert+delete
//! windows) flows through the same code paths as insertion — every
//! operator is symmetric in the sign. The merge operator
//! [`merge::MergeOp`] sits above the root and turns result deltas into a
//! sketch delta `ΔP` (§5.1).
//!
//! # Join compilation: n-ary circuit vs. binary fallback
//!
//! Equi-join trees are canonicalized by
//! [`imp_sql::plan::flatten_join`] (left-deep, right-deep, and bushy
//! shapes all normalize to one join set) and — when the flattened form
//! has ≥ 3 inputs and [`OpConfig::nary_join`] is on — compiled into a
//! single [`NaryJoinOp`] maintaining `Δ(R₁ ⋈ … ⋈ Rₙ)` by the
//! telescoping generalization of the paper's three-term rule, probing n
//! per-input indexes with **no intermediate pair state** (see
//! [`nary`]'s module docs).
//!
//! The binary [`JoinOp`] remains in exactly these cases, and doubles as
//! the differential oracle for the n-ary path (`nary_differential`):
//!
//! * two-input joins (the three-term rule *is* the n = 2 telescoping);
//! * cross products (no equi-keys to canonicalize — an empty-key join
//!   stays one leaf input of the flattened form);
//! * `OpConfig::nary_join` disabled (the oracle configuration).

pub mod aggregate;
pub mod join;
pub mod merge;
pub mod nary;
pub mod topk;

pub use aggregate::AggOp;
pub use join::JoinOp;
pub use merge::MergeOp;
pub use nary::NaryJoinOp;
pub use topk::TopKOp;

use crate::delta::DeltaBatch;
use crate::error::CoreError;
use crate::metrics::MaintMetrics;
use crate::Result;
use imp_engine::Database;
use imp_sketch::PartitionSet;
use imp_sql::{Expr, LogicalPlan};
use imp_storage::{AnnotPool, DeltaEntry, FxHashMap, Row};
use std::sync::Arc;

/// Per-run context shared by all operators.
pub struct MaintCtx<'a> {
    /// The backend database (already at the *new* state).
    pub db: &'a Database,
    /// The partitions `Φ` of the sketch being maintained.
    pub pset: &'a Arc<PartitionSet>,
    /// Annotated deltas per base table, pre-filtered by selection
    /// push-down when enabled. Entries reference [`MaintCtx::pool`].
    pub deltas: &'a FxHashMap<String, DeltaBatch>,
    /// The annotation pool every batch of this run is interpreted
    /// against; operators combine annotations with its memoized unions.
    pub pool: &'a mut AnnotPool,
    /// Cost counters.
    pub metrics: &'a mut MaintMetrics,
    /// Set by bounded-state operators when their buffer can no longer
    /// answer (paper §7.2 / §8.4.3: "our IMP will fully maintain the
    /// sketches"). The maintainer responds with a full recapture.
    pub needs_recapture: bool,
}

/// Default MIN/MAX buffer bound: the best `l` distinct values kept per
/// group (§7.2). Deltas are typically far smaller than this, so the
/// recapture fallback stays rare while state is bounded by default.
pub const DEFAULT_MINMAX_BUFFER: usize = 64;

/// Default per-side join-index budget (annotated tuples). Sized so the
/// evaluation workloads keep their sides materialised while a genuinely
/// huge side (≳ 100 MB of entries) falls back to per-batch outsourced
/// evaluation instead of exhausting memory.
pub const DEFAULT_JOIN_INDEX_BUDGET: usize = 1 << 20;

/// Tuning knobs for operator construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpConfig {
    /// Maintain bloom filters for join deltas (§7.2).
    pub bloom: bool,
    /// Keep only the best `l` values per group in MIN/MAX state (§7.2
    /// "Optimizing Minimum, Maximum, and Top-k"); `None` = unbounded.
    /// Bounded to [`DEFAULT_MINMAX_BUFFER`] by default, with the
    /// recapture fallback restoring exactness when the buffer exhausts.
    pub minmax_buffer: Option<usize>,
    /// Keep only the best `l` entries in top-k state; `None` = unbounded.
    pub topk_buffer: Option<usize>,
    /// Materialise each join side as a delta-maintained
    /// [`crate::opt::JoinSideIndex`] holding at most this many annotated
    /// tuples, so steady-state `Q ⋈ Δ` terms are answered in memory
    /// without a backend round trip. A side over budget falls back to
    /// per-batch outsourced evaluation (like `minmax_buffer`'s recapture
    /// fallback). `None` disables the indexes entirely.
    pub join_index_budget: Option<usize>,
    /// Compile flattenable equi-join trees of ≥ 3 inputs into one
    /// [`NaryJoinOp`] (the delta-circuit path). Off = every join stays a
    /// binary [`JoinOp`] — the differential oracle configuration.
    pub nary_join: bool,
    /// Has no effect: every delta kernel has a single row-at-a-time
    /// path. Kept only because the benchmark's replay builds `OpConfig`
    /// with a struct literal that names it; nothing reads it.
    pub columnar_min: usize,
}

impl Default for OpConfig {
    fn default() -> Self {
        OpConfig {
            bloom: true,
            minmax_buffer: Some(DEFAULT_MINMAX_BUFFER),
            topk_buffer: None,
            join_index_budget: Some(DEFAULT_JOIN_INDEX_BUDGET),
            nary_join: true,
            columnar_min: 0,
        }
    }
}

/// One node of the incremental plan.
#[derive(Debug)]
pub enum IncNode {
    /// Table access: forwards the table's annotated delta (§5.2.1).
    TableAccess {
        /// Base table name.
        table: String,
    },
    /// Stateless selection σ (§5.2.3).
    Selection {
        /// Input operator.
        input: Box<IncNode>,
        /// Filter predicate.
        predicate: Expr,
    },
    /// Stateless projection Π (§5.2.2).
    Projection {
        /// Input operator.
        input: Box<IncNode>,
        /// Projection expressions.
        exprs: Vec<Expr>,
    },
    /// Join / cross product (§5.2.4), with bloom filters (§7.2). The
    /// binary fallback and differential oracle of the n-ary path.
    Join(Box<JoinOp>),
    /// Flattened n-ary equi-join (≥ 3 inputs) maintained by the
    /// telescoping delta rule with per-input indexes only.
    Nary(Box<NaryJoinOp>),
    /// Aggregation (§5.2.5/§5.2.6); also implements duplicate removal δ.
    Aggregate(Box<AggOp>),
    /// Top-k (§5.2.7).
    TopK(Box<TopKOp>),
    /// Order-preserving pass-through (Sort does not affect sketches).
    Passthrough {
        /// Input operator.
        input: Box<IncNode>,
    },
}

impl IncNode {
    /// Compile a logical plan into an incremental operator tree.
    pub fn build(plan: &LogicalPlan, config: &OpConfig) -> Result<IncNode> {
        Ok(match plan {
            LogicalPlan::Scan { table, .. } => IncNode::TableAccess {
                table: table.clone(),
            },
            LogicalPlan::Filter { input, predicate } => IncNode::Selection {
                input: Box::new(IncNode::build(input, config)?),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { input, exprs, .. } => IncNode::Projection {
                input: Box::new(IncNode::build(input, config)?),
                exprs: exprs.clone(),
            },
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                if !is_stateless(left) || !is_stateless(right) {
                    return Err(CoreError::Unsupported(
                        "incremental joins require SPJ inputs; aggregation below a \
                         join is not supported (the paper's workloads join base \
                         tables / SPJ subqueries only)"
                            .into(),
                    ));
                }
                // Canonicalize the equi-join tree; deep enough trees
                // compile to the n-ary circuit (see the module docs for
                // when the binary fallback below is used instead).
                if config.nary_join {
                    if let Some(flat) = imp_sql::plan::flatten_join(plan) {
                        if flat.inputs.len() >= 3 {
                            return Ok(IncNode::Nary(Box::new(NaryJoinOp::new(&flat, config)?)));
                        }
                    }
                }
                IncNode::Join(Box::new(JoinOp::new(
                    IncNode::build(left, config)?,
                    IncNode::build(right, config)?,
                    (**left).clone(),
                    (**right).clone(),
                    left_keys.clone(),
                    right_keys.clone(),
                    config,
                )))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => IncNode::Aggregate(Box::new(AggOp::new(
                IncNode::build(input, config)?,
                group_by.clone(),
                aggs.clone(),
                config,
            ))),
            LogicalPlan::Distinct { input } => {
                // δ(R) = γ_{;all-cols}(R): grouping on the full row with no
                // aggregation functions (paper Fig. 4).
                let arity = input.schema().arity();
                IncNode::Aggregate(Box::new(AggOp::new(
                    IncNode::build(input, config)?,
                    (0..arity).map(Expr::Col).collect(),
                    vec![],
                    config,
                )))
            }
            LogicalPlan::TopK { input, keys, k } => IncNode::TopK(Box::new(TopKOp::new(
                IncNode::build(input, config)?,
                keys.clone(),
                *k,
                config.topk_buffer,
            ))),
            LogicalPlan::Sort { input, .. } => IncNode::Passthrough {
                input: Box::new(IncNode::build(input, config)?),
            },
            LogicalPlan::Except { .. } => {
                return Err(CoreError::Unsupported(
                    "set difference is not sketch-maintainable (paper §9 \
                     future work); IMP answers such queries directly"
                        .into(),
                ))
            }
        })
    }

    /// Process one maintenance batch: consume input deltas, update state,
    /// emit the output delta.
    pub fn process(&mut self, ctx: &mut MaintCtx<'_>) -> Result<DeltaBatch> {
        match self {
            IncNode::TableAccess { table } => {
                // I(R, Δ𝒟) = Δℛ — the annotated delta, unmodified (§5.2.1).
                // Cloning a batch clones no tuple or bitvector data.
                Ok(ctx.deltas.get(table.as_str()).cloned().unwrap_or_default())
            }
            IncNode::Selection { input, predicate } => {
                let rows = input.process(ctx)?;
                let mut out = DeltaBatch::new();
                for d in rows {
                    ctx.metrics.rows_processed += 1;
                    if predicate
                        .eval_predicate(&d.row)
                        .map_err(imp_engine::EngineError::from)?
                    {
                        out.push(d);
                    }
                }
                Ok(out)
            }
            IncNode::Projection { input, exprs } => {
                let rows = input.process(ctx)?;
                let mut out = DeltaBatch::with_capacity(rows.len());
                for d in rows {
                    ctx.metrics.rows_processed += 1;
                    let vals = exprs
                        .iter()
                        .map(|e| e.eval(&d.row))
                        .collect::<std::result::Result<Vec<_>, _>>()
                        .map_err(imp_engine::EngineError::from)?;
                    out.push(DeltaEntry {
                        row: Row::new(vals),
                        annot: d.annot,
                        mult: d.mult,
                    });
                }
                Ok(out)
            }
            IncNode::Join(j) => j.process(ctx),
            IncNode::Nary(n) => n.process(ctx),
            IncNode::Aggregate(a) => a.process(ctx),
            IncNode::TopK(t) => t.process(ctx),
            IncNode::Passthrough { input } => input.process(ctx),
        }
    }

    /// Drop all operator state (before a recapture).
    pub fn reset(&mut self) {
        match self {
            IncNode::TableAccess { .. } => {}
            IncNode::Selection { input, .. }
            | IncNode::Projection { input, .. }
            | IncNode::Passthrough { input } => input.reset(),
            IncNode::Join(j) => j.reset(),
            IncNode::Nary(n) => n.reset(),
            IncNode::Aggregate(a) => a.reset(),
            IncNode::TopK(t) => t.reset(),
        }
    }

    /// Entries and own-state bytes of the topmost top-k operator, if any
    /// (Fig. 13e/f reports this against the buffer bound).
    pub fn topk_state(&self) -> Option<(usize, usize)> {
        match self {
            IncNode::TableAccess { .. } => None,
            IncNode::Selection { input, .. }
            | IncNode::Projection { input, .. }
            | IncNode::Passthrough { input } => input.topk_state(),
            IncNode::Join(j) => {
                let (l, r) = (j.left_child(), j.right_child());
                l.topk_state().or_else(|| r.topk_state())
            }
            IncNode::Nary(n) => n.children().iter().find_map(IncNode::topk_state),
            IncNode::Aggregate(a) => a.input_child().topk_state(),
            IncNode::TopK(t) => Some((t.stored_entries(), t.own_heap_size())),
        }
    }

    /// Aggregate `(entries, bytes)` of every join-side index in the tree
    /// (Fig. 17 reports the index footprint next to the operator state).
    pub fn join_index_state(&self) -> (usize, usize) {
        match self {
            IncNode::TableAccess { .. } => (0, 0),
            IncNode::Selection { input, .. }
            | IncNode::Projection { input, .. }
            | IncNode::Passthrough { input } => input.join_index_state(),
            IncNode::Join(j) => {
                let (own_e, own_b) = j.index_state();
                let (le, lb) = j.left_child().join_index_state();
                let (re, rb) = j.right_child().join_index_state();
                (own_e + le + re, own_b + lb + rb)
            }
            IncNode::Nary(n) => {
                let (mut e, mut b) = n.index_state();
                for c in n.children() {
                    let (ce, cb) = c.join_index_state();
                    e += ce;
                    b += cb;
                }
                (e, b)
            }
            IncNode::Aggregate(a) => a.input_child().join_index_state(),
            IncNode::TopK(t) => t.input_child().join_index_state(),
        }
    }

    /// Visit every `Arc<BitVec>` annotation handle held anywhere in the
    /// tree's persistent state (top-k entries, join-side indexes).
    /// Aggregation and merge state hold fragment *counters*, never
    /// handles, so they contribute nothing. Used by the maintainer's
    /// shared-ownership-aware heap accounting.
    pub fn for_each_annot(&self, f: &mut dyn FnMut(&Arc<imp_storage::BitVec>)) {
        match self {
            IncNode::TableAccess { .. } => {}
            IncNode::Selection { input, .. }
            | IncNode::Projection { input, .. }
            | IncNode::Passthrough { input } => input.for_each_annot(f),
            IncNode::Join(j) => {
                j.for_each_annot(f);
                j.left_child().for_each_annot(f);
                j.right_child().for_each_annot(f);
            }
            IncNode::Nary(n) => {
                n.for_each_annot(f);
                for c in n.children() {
                    c.for_each_annot(f);
                }
            }
            IncNode::Aggregate(a) => a.input_child().for_each_annot(f),
            IncNode::TopK(t) => {
                t.for_each_annot(f);
                t.input_child().for_each_annot(f);
            }
        }
    }

    /// Approximate heap footprint of all operator state (Fig. 15/17).
    pub fn heap_size(&self) -> usize {
        match self {
            IncNode::TableAccess { .. } => 0,
            IncNode::Selection { input, .. }
            | IncNode::Projection { input, .. }
            | IncNode::Passthrough { input } => input.heap_size(),
            IncNode::Join(j) => j.heap_size(),
            IncNode::Nary(n) => n.heap_size(),
            IncNode::Aggregate(a) => a.heap_size(),
            IncNode::TopK(t) => t.heap_size(),
        }
    }

    /// Arity of the topmost n-ary join in the circuit, if any (`fig_deep`
    /// and the differential tests assert which path compiled).
    pub fn nary_arity(&self) -> Option<usize> {
        self.find_nary(&mut |n| n.arity())
    }

    /// Per-input probe counts (last batch) of the topmost n-ary join, if
    /// any — surfaced through `MaintReport::nary_input_probes`.
    pub fn nary_probe_counts(&self) -> Option<Vec<u64>> {
        self.find_nary(&mut |n| n.probes_last().to_vec())
    }

    /// Canonical shape signature of the topmost n-ary join, if any (the
    /// canonicalization proptests compare these across parse trees).
    pub fn nary_signature(&self) -> Option<String> {
        self.find_nary(&mut |n| n.signature())
    }

    fn find_nary<T>(&self, f: &mut dyn FnMut(&NaryJoinOp) -> T) -> Option<T> {
        match self {
            IncNode::TableAccess { .. } => None,
            IncNode::Selection { input, .. }
            | IncNode::Projection { input, .. }
            | IncNode::Passthrough { input } => input.find_nary(f),
            IncNode::Join(j) => j
                .left_child()
                .find_nary(f)
                .or_else(|| j.right_child().find_nary(f)),
            IncNode::Nary(n) => Some(f(n)),
            IncNode::Aggregate(a) => a.input_child().find_nary(f),
            IncNode::TopK(t) => t.input_child().find_nary(f),
        }
    }
}

/// Is this plan free of stateful operators (pure select-project-join)?
pub fn is_stateless(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            is_stateless(input)
        }
        LogicalPlan::Join { left, right, .. } => is_stateless(left) && is_stateless(right),
        LogicalPlan::Aggregate { .. }
        | LogicalPlan::Distinct { .. }
        | LogicalPlan::TopK { .. }
        | LogicalPlan::Sort { .. }
        | LogicalPlan::Except { .. } => false,
    }
}
