//! Incremental aggregation (paper §5.2.5 / §5.2.6).
//!
//! Per group `g` the state holds the running aggregates, the group's tuple
//! count `CNT`, and the fragment counters `ℱ_g`. SUM / COUNT / AVG share a
//! numeric accumulator; MIN / MAX keep an ordered multiset (`BTreeMap`, the
//! paper's red-black tree) — optionally bounded to the best `l` values
//! with a recapture fallback (§7.2). Group results are emitted as one
//! `Δ-⟨old⟩, Δ+⟨new⟩` pair per *touched* group per batch, using lazily
//! created snapshots of the pre-batch output (§7.1: "to avoid producing
//! multiple delta tuples per group we maintain copies of the previous
//! states of groups … created lazily when a group is updated for the first
//! time when processing a delta").

use super::{IncNode, MaintCtx};
use crate::delta::{DeltaBatch, DeltaEntry};
use crate::error::CoreError;
use crate::fragcount::FragCounts;
use crate::Result;
use imp_engine::eval::NumAcc;
use imp_sql::{AggFunc, AggSpec, Expr};
use imp_storage::{AnnotId, AnnotPool, FxHashMap, Row, Value};
use std::collections::BTreeMap;

/// Incremental aggregation operator (also implements δ when `aggs` is
/// empty: output is the group key alone).
#[derive(Debug)]
pub struct AggOp {
    input: Box<IncNode>,
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    groups: FxHashMap<Row, GroupState>,
    /// Aggregation without GROUP BY: the single group always exists.
    global: bool,
    minmax_buffer: Option<usize>,
}

/// Per-group state `S[g] = (aggregates, CNT, P, ℱ_g)`.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// Total multiplicity of input tuples in the group (`CNT`).
    pub count: i64,
    /// Fragment counters `ℱ_g`.
    pub frags: FragCounts,
    /// One accumulator per aggregation function.
    pub accs: Vec<IncAcc>,
}

impl GroupState {
    fn new(aggs: &[AggSpec], buffer: Option<usize>) -> GroupState {
        GroupState {
            count: 0,
            frags: FragCounts::new(),
            accs: aggs.iter().map(|a| IncAcc::new(a.func, buffer)).collect(),
        }
    }
}

/// Incremental accumulator for one aggregation function.
#[derive(Debug, Clone)]
pub enum IncAcc {
    /// `SUM(a)`: running sum + count of non-NULL inputs.
    Sum {
        /// The running sum.
        sum: NumAcc,
        /// Non-NULL input multiplicity.
        non_null: i64,
    },
    /// `COUNT(a)` / `COUNT(*)`.
    Count {
        /// Counted multiplicity.
        non_null: i64,
    },
    /// `AVG(a)` = SUM / CNT (§5.2.5).
    Avg {
        /// The running sum.
        sum: NumAcc,
        /// Non-NULL input multiplicity.
        non_null: i64,
    },
    /// `MIN(a)`: ordered multiset of values.
    Min(OrderedAcc),
    /// `MAX(a)`: ordered multiset of values.
    Max(OrderedAcc),
}

impl IncAcc {
    fn new(func: AggFunc, buffer: Option<usize>) -> IncAcc {
        match func {
            AggFunc::Sum => IncAcc::Sum {
                sum: NumAcc::default(),
                non_null: 0,
            },
            AggFunc::Count => IncAcc::Count { non_null: 0 },
            AggFunc::Avg => IncAcc::Avg {
                sum: NumAcc::default(),
                non_null: 0,
            },
            AggFunc::Min => IncAcc::Min(OrderedAcc::new(true, buffer)),
            AggFunc::Max => IncAcc::Max(OrderedAcc::new(false, buffer)),
        }
    }

    /// Apply one input (`arg = None` for `count(*)`).
    fn update(&mut self, arg: Option<&Value>, mult: i64) -> Result<bool> {
        let mut needs_recapture = false;
        match self {
            IncAcc::Count { non_null } => match arg {
                None => *non_null += mult,
                Some(v) if !v.is_null() => *non_null += mult,
                _ => {}
            },
            IncAcc::Sum { sum, non_null } | IncAcc::Avg { sum, non_null } => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        sum.add(v, mult).map_err(CoreError::Engine)?;
                        *non_null += mult;
                    }
                }
            }
            IncAcc::Min(acc) | IncAcc::Max(acc) => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        needs_recapture = acc.update(v, mult);
                    }
                }
            }
        }
        Ok(needs_recapture)
    }

    /// Current output value.
    fn finish(&self) -> Value {
        match self {
            IncAcc::Count { non_null } => Value::Int(*non_null),
            IncAcc::Sum { sum, non_null } => {
                if *non_null == 0 {
                    Value::Null
                } else {
                    sum.value()
                }
            }
            IncAcc::Avg { sum, non_null } => {
                if *non_null == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.as_f64() / *non_null as f64)
                }
            }
            IncAcc::Min(acc) | IncAcc::Max(acc) => acc.best().cloned().unwrap_or(Value::Null),
        }
    }

    fn heap_size(&self) -> usize {
        match self {
            IncAcc::Min(acc) | IncAcc::Max(acc) => acc.heap_size(),
            _ => 0,
        }
    }
}

/// Ordered multiset (`CNT` tree of §5.2.6), optionally bounded to the best
/// `l` distinct values (§7.2).
#[derive(Debug, Clone)]
pub struct OrderedAcc {
    tree: BTreeMap<Value, i64>,
    /// `true` = MIN (best = smallest); `false` = MAX.
    is_min: bool,
    buffer: Option<usize>,
    /// Values beyond the horizon were evicted at some point.
    truncated: bool,
}

impl OrderedAcc {
    fn new(is_min: bool, buffer: Option<usize>) -> OrderedAcc {
        OrderedAcc {
            tree: BTreeMap::new(),
            is_min,
            buffer,
            truncated: false,
        }
    }

    /// Best value (minimum or maximum).
    pub fn best(&self) -> Option<&Value> {
        if self.is_min {
            self.tree.keys().next()
        } else {
            self.tree.keys().next_back()
        }
    }

    /// Worst *stored* value — the truncation horizon.
    fn horizon(&self) -> Option<&Value> {
        if self.is_min {
            self.tree.keys().next_back()
        } else {
            self.tree.keys().next()
        }
    }

    /// Is `v` strictly beyond the stored horizon (i.e. could only have
    /// been evicted, never needed)?
    fn beyond_horizon(&self, v: &Value) -> bool {
        match self.horizon() {
            None => true,
            Some(h) => {
                if self.is_min {
                    v > h
                } else {
                    v < h
                }
            }
        }
    }

    /// Apply `mult` copies of `v`. Returns `true` when the state can no
    /// longer answer and a recapture is required.
    fn update(&mut self, v: &Value, mult: i64) -> bool {
        if mult > 0 {
            if self.truncated && self.beyond_horizon(v) {
                // Invariant: after truncation the tree holds exactly the
                // best `len` values of the full multiset (evicted values
                // are all beyond the horizon). Inserting past the horizon
                // would break that prefix property, so such values are
                // ignored — they cannot become the min/max before the
                // recapture that any horizon underflow triggers.
                return false;
            }
            *self.tree.entry(v.clone()).or_insert(0) += mult;
            if let Some(l) = self.buffer {
                while self.tree.len() > l {
                    let evict = if self.is_min {
                        self.tree.keys().next_back().cloned()
                    } else {
                        self.tree.keys().next().cloned()
                    };
                    if let Some(k) = evict {
                        self.tree.remove(&k);
                        self.truncated = true;
                    }
                }
            }
            return false;
        }
        // Deletion.
        match self.tree.get_mut(v) {
            Some(c) => {
                *c += mult;
                if *c <= 0 {
                    let corrupt = *c < 0;
                    self.tree.remove(v);
                    if corrupt {
                        // More deletions than insertions seen: only
                        // explicable by truncation; recapture.
                        return true;
                    }
                }
                // Buffer exhausted: every stored value gone but older
                // values were evicted — we no longer know the min/max.
                self.truncated && self.tree.is_empty()
            }
            None => {
                if self.truncated && self.beyond_horizon(v) {
                    // Deleting an evicted value: no effect on the best l.
                    false
                } else if self.truncated {
                    // Inside the horizon but unknown: state is stale.
                    true
                } else {
                    // Deletion of a never-inserted value: inconsistent input.
                    true
                }
            }
        }
    }

    /// Number of stored distinct values.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True iff no values are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    fn heap_size(&self) -> usize {
        self.tree.len() * (std::mem::size_of::<Value>() + std::mem::size_of::<i64>() + 48)
            + self.tree.keys().map(Value::heap_size).sum::<usize>()
    }
}

impl AggOp {
    /// New aggregation operator.
    pub fn new(
        input: IncNode,
        group_by: Vec<Expr>,
        aggs: Vec<AggSpec>,
        config: &super::OpConfig,
    ) -> AggOp {
        let global = group_by.is_empty();
        let minmax_buffer = config.minmax_buffer;
        let mut op = AggOp {
            input: Box::new(input),
            group_by,
            aggs,
            groups: FxHashMap::default(),
            global,
            minmax_buffer,
        };
        if global {
            // The single group of a global aggregate exists even on empty
            // input (SUM → NULL, COUNT → 0).
            op.groups
                .insert(Row::new(vec![]), GroupState::new(&op.aggs, minmax_buffer));
        }
        op
    }

    /// Current output (row, pooled annotation) of a group, or `None` if
    /// the group does not (or no longer) exist(s). The group's sketch
    /// `{ρ | ℱ_g[ρ] > 0}` is interned, so unchanged groups re-use the
    /// same id and equal sketches share one bitvector.
    fn output_of(
        &self,
        key: &Row,
        total_frags: usize,
        pool: &mut AnnotPool,
    ) -> Option<(Row, AnnotId)> {
        let st = self.groups.get(key)?;
        if st.count <= 0 && !self.global {
            return None;
        }
        let mut vals: Vec<Value> = key.values().to_vec();
        for acc in &st.accs {
            vals.push(acc.finish());
        }
        Some((Row::new(vals), pool.intern(st.frags.to_bits(total_frags))))
    }

    /// Process one batch (see module docs).
    pub fn process(&mut self, ctx: &mut MaintCtx<'_>) -> Result<DeltaBatch> {
        let input = self.input.process(ctx)?;
        if input.is_empty() {
            return Ok(DeltaBatch::new());
        }
        let _span = crate::obs::trace::span("aggregate_delta");
        let total = ctx.pset.total_fragments();
        // Lazy pre-batch snapshots of each touched group's output (§7.1).
        let mut old_outputs: FxHashMap<Row, Option<(Row, AnnotId)>> = FxHashMap::default();
        self.apply(&input, total, &mut old_outputs, ctx)?;
        ctx.metrics.groups_touched += old_outputs.len() as u64;
        // Emit Δ-old / Δ+new per touched group; drop dead groups.
        let mut out = DeltaBatch::new();
        for (key, old) in old_outputs {
            if let Some(st) = self.groups.get(&key) {
                if st.count < 0 {
                    return Err(CoreError::StateCorrupt(format!(
                        "group {key} has negative count {}",
                        st.count
                    )));
                }
                if st.frags.any_negative() {
                    return Err(CoreError::StateCorrupt(format!(
                        "group {key} has a negative fragment counter"
                    )));
                }
                if st.count == 0 && !self.global {
                    self.groups.remove(&key);
                }
            }
            let new = self.output_of(&key, total, ctx.pool);
            if old == new {
                continue; // group output unchanged, no delta
            }
            if let Some((row, annot)) = old {
                out.push(DeltaEntry {
                    row,
                    annot,
                    mult: -1,
                });
            }
            if let Some((row, annot)) = new {
                out.push(DeltaEntry {
                    row,
                    annot,
                    mult: 1,
                });
            }
        }
        Ok(out)
    }

    /// Row-at-a-time group maintenance: one hash probe and one snapshot
    /// check per input row.
    fn apply(
        &mut self,
        input: &DeltaBatch,
        total: usize,
        old_outputs: &mut FxHashMap<Row, Option<(Row, AnnotId)>>,
        ctx: &mut MaintCtx<'_>,
    ) -> Result<()> {
        for d in input {
            ctx.metrics.rows_processed += 1;
            let key: Row = self
                .group_by
                .iter()
                .map(|g| g.eval(&d.row))
                .collect::<std::result::Result<_, _>>()
                .map_err(imp_engine::EngineError::from)?;
            if !old_outputs.contains_key(&key) {
                let snap = self.output_of(&key, total, ctx.pool);
                old_outputs.insert(key.clone(), snap);
            }
            let st = self
                .groups
                .entry(key)
                .or_insert_with(|| GroupState::new(&self.aggs, self.minmax_buffer));
            apply_entry(st, d, &self.aggs, ctx)?;
        }
        Ok(())
    }

    /// Drop all group state.
    pub fn reset(&mut self) {
        self.groups.clear();
        if self.global {
            self.groups.insert(
                Row::new(vec![]),
                GroupState::new(&self.aggs, self.minmax_buffer),
            );
        }
        self.input.reset();
    }

    /// Input child (state persistence walks the tree).
    pub fn input_child(&self) -> &IncNode {
        &self.input
    }

    /// Mutable input child.
    pub fn input_child_mut(&mut self) -> &mut IncNode {
        &mut self.input
    }

    /// Number of groups currently tracked.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Serialize the group state (paper §2: operator state can be
    /// persisted in the database and restored later).
    pub fn encode_state(&self, buf: &mut bytes::BytesMut) {
        use imp_storage::codec::*;
        encode_u64(buf, self.groups.len() as u64);
        // Deterministic order for reproducible encodings.
        let mut keys: Vec<&Row> = self.groups.keys().collect();
        keys.sort();
        for key in keys {
            let st = &self.groups[key];
            encode_row(buf, key);
            encode_i64(buf, st.count);
            encode_u64(buf, st.frags.len() as u64);
            for (f, c) in st.frags.iter() {
                encode_u64(buf, f as u64);
                encode_i64(buf, c);
            }
            for acc in &st.accs {
                match acc {
                    IncAcc::Sum { sum, non_null } | IncAcc::Avg { sum, non_null } => {
                        let (i, f, isf) = sum.to_parts();
                        encode_i64(buf, i);
                        encode_f64(buf, f);
                        encode_u64(buf, isf as u64);
                        encode_i64(buf, *non_null);
                    }
                    IncAcc::Count { non_null } => encode_i64(buf, *non_null),
                    IncAcc::Min(o) | IncAcc::Max(o) => {
                        encode_u64(buf, o.truncated as u64);
                        encode_u64(buf, o.tree.len() as u64);
                        for (v, c) in &o.tree {
                            encode_value(buf, v);
                            encode_i64(buf, *c);
                        }
                    }
                }
            }
        }
    }

    /// Restore group state written by [`AggOp::encode_state`].
    pub fn decode_state(&mut self, buf: &mut bytes::Bytes) -> crate::Result<()> {
        use imp_storage::codec::*;
        self.groups.clear();
        let n = decode_u64(buf)?;
        for _ in 0..n {
            let key = decode_row(buf)?;
            let count = decode_i64(buf)?;
            let mut frags = FragCounts::new();
            let nf = decode_u64(buf)?;
            for _ in 0..nf {
                let f = decode_u64(buf)? as u32;
                let c = decode_i64(buf)?;
                frags.add(f, c);
            }
            let mut accs = Vec::with_capacity(self.aggs.len());
            for spec in &self.aggs {
                let acc = match spec.func {
                    AggFunc::Sum | AggFunc::Avg => {
                        let i = decode_i64(buf)?;
                        let f = decode_f64(buf)?;
                        let isf = decode_u64(buf)? != 0;
                        let non_null = decode_i64(buf)?;
                        let sum = NumAcc::from_parts(i, f, isf);
                        if spec.func == AggFunc::Sum {
                            IncAcc::Sum { sum, non_null }
                        } else {
                            IncAcc::Avg { sum, non_null }
                        }
                    }
                    AggFunc::Count => IncAcc::Count {
                        non_null: decode_i64(buf)?,
                    },
                    AggFunc::Min | AggFunc::Max => {
                        let truncated = decode_u64(buf)? != 0;
                        let len = decode_u64(buf)?;
                        let mut tree = BTreeMap::new();
                        for _ in 0..len {
                            let v = decode_value(buf)?;
                            let c = decode_i64(buf)?;
                            tree.insert(v, c);
                        }
                        let mut o = OrderedAcc::new(spec.func == AggFunc::Min, self.minmax_buffer);
                        o.tree = tree;
                        o.truncated = truncated;
                        if spec.func == AggFunc::Min {
                            IncAcc::Min(o)
                        } else {
                            IncAcc::Max(o)
                        }
                    }
                };
                accs.push(acc);
            }
            self.groups.insert(key, GroupState { count, frags, accs });
        }
        Ok(())
    }

    /// Heap footprint of the group state (Fig. 15/17).
    pub fn heap_size(&self) -> usize {
        let per_group: usize = self
            .groups
            .iter()
            .map(|(k, st)| {
                k.heap_size()
                    + st.frags.heap_size()
                    + st.accs.iter().map(IncAcc::heap_size).sum::<usize>()
                    + std::mem::size_of::<GroupState>()
            })
            .sum();
        per_group + self.input.heap_size()
    }
}

/// Apply one input entry to a group's state: tuple count, fragment
/// counters `ℱ_g`, and every accumulator.
fn apply_entry(
    st: &mut GroupState,
    d: &DeltaEntry,
    aggs: &[AggSpec],
    ctx: &mut MaintCtx<'_>,
) -> Result<()> {
    st.count += d.mult;
    for frag in ctx.pool.get(d.annot).iter_ones() {
        st.frags.add(frag as u32, d.mult);
    }
    for (acc, spec) in st.accs.iter_mut().zip(aggs) {
        let arg = match &spec.arg {
            Some(e) => Some(e.eval(&d.row).map_err(imp_engine::EngineError::from)?),
            None => None,
        };
        if acc.update(arg.as_ref(), d.mult)? {
            ctx.needs_recapture = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_acc_min_tracks_best() {
        let mut a = OrderedAcc::new(true, None);
        assert!(!a.update(&Value::Int(5), 1));
        assert!(!a.update(&Value::Int(3), 2));
        assert_eq!(a.best(), Some(&Value::Int(3)));
        assert!(!a.update(&Value::Int(3), -2));
        assert_eq!(a.best(), Some(&Value::Int(5)));
    }

    #[test]
    fn ordered_acc_bounded_recaptures_on_exhaustion() {
        // Keep 2 smallest; delete them all → recapture required.
        let mut a = OrderedAcc::new(true, Some(2));
        for v in [1, 2, 3, 4] {
            a.update(&Value::Int(v), 1);
        }
        assert_eq!(a.len(), 2);
        assert_eq!(a.best(), Some(&Value::Int(1)));
        assert!(!a.update(&Value::Int(1), -1));
        // Deleting the last stored value with evicted values outstanding.
        assert!(a.update(&Value::Int(2), -1));
    }

    #[test]
    fn ordered_acc_bounded_ignores_beyond_horizon_deletes() {
        let mut a = OrderedAcc::new(true, Some(2));
        for v in [1, 2, 3, 4] {
            a.update(&Value::Int(v), 1);
        }
        // 4 was evicted (beyond horizon 2): deleting it is a no-op.
        assert!(!a.update(&Value::Int(4), -1));
        assert_eq!(a.best(), Some(&Value::Int(1)));
    }

    #[test]
    fn ordered_acc_max_direction() {
        let mut a = OrderedAcc::new(false, Some(2));
        for v in [1, 2, 3, 4] {
            a.update(&Value::Int(v), 1);
        }
        assert_eq!(a.best(), Some(&Value::Int(4)));
        // stored {3,4}; 1 evicted; deleting 1 safe
        assert!(!a.update(&Value::Int(1), -1));
        assert!(!a.update(&Value::Int(4), -1));
        assert_eq!(a.best(), Some(&Value::Int(3)));
    }

    #[test]
    fn delete_of_never_inserted_value_flags_recapture() {
        let mut a = OrderedAcc::new(true, None);
        a.update(&Value::Int(1), 1);
        assert!(a.update(&Value::Int(9), -1));
    }
}
