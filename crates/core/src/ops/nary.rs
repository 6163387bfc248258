//! N-ary incremental equi-join: one operator maintaining
//! `Δ(R₁ ⋈ … ⋈ Rₙ)` without intermediate pair state.
//!
//! # The telescoping n-ary delta rule
//!
//! The binary rule of [`super::join`] generalizes by inclusion–exclusion,
//! but the 2ⁿ−1 signed terms collapse into n all-positive terms once each
//! input is read at a *mixed* frontier — inputs left of the current term
//! at their new state, inputs right of it at their old state:
//!
//! ```text
//! Δ(⋈ᵢ Rᵢ) = Σᵢ  R₁ᴺᴱᵂ ⋈ … ⋈ Rᵢ₋₁ᴺᴱᵂ ⋈ ΔRᵢ ⋈ Rᵢ₊₁ᴼᴸᴰ ⋈ … ⋈ Rₙᴼᴸᴰ
//! ```
//!
//! (Substitute `Rᴺᴱᵂ = Rᴼᴸᴰ + ΔR` term by term and the cross terms
//! telescope; for n = 2 this is exactly
//! `ΔR₁ ⋈ R₂ᴼᴸᴰ + R₁ᴺᴱᵂ ⋈ ΔR₂ = ΔR₁ ⋈ R₂ᴺᴱᵂ + R₁ᴺᴱᵂ ⋈ ΔR₂ − ΔR₁ ⋈ ΔR₂`,
//! the paper's three-term rule.) Signed multiplicities multiply, so
//! high-churn retraction batches flow through the same n terms: a delete
//! meeting a delete inserts, and a same-batch insert+delete pair cancels
//! in the final normalize *inside* this operator — parents never see the
//! churn (Δ⋈Δ annihilation).
//!
//! The operator walks the terms in input order and absorbs `ΔRᵢ` into
//! input i's [`NarySideIndex`] immediately *after* term i — so indexes
//! left of the cursor are at the new state and indexes right of it still
//! at the old state, exactly the frontier the rule reads. No upfront
//! sync, no state copies. An index first built mid-batch (one backend
//! evaluation, which always sees the *new* table state) is rewound to
//! the old state with a negated delta when its own term is still ahead.
//!
//! # Leapfrog-style probing, no pair state
//!
//! Each term seeds partial tuples from `ΔRᵢ` and extends them one input
//! at a time along a precomputed greedy order (next input with all join
//! classes bound, else the most bound classes, else — a disconnected
//! cross-product component — a full index scan). Every extension probes
//! that input's per-input index with the classes bound so far, in the
//! spirit of leapfrog triejoin's variable-at-a-time expansion (hash
//! indexes standing in for sorted tries). The only operator state is the
//! n per-input indexes: nothing materialises `R₁ ⋈ R₂` or any other
//! intermediate pair, so deep plans carry no pair-state heap at all.
//!
//! Bloom filters are not used on this path: every probe is an in-memory
//! hash lookup already, so there is no outsourced round trip for a bloom
//! to save (the binary fallback keeps its blooms for exactly that
//! reason).

use super::{IncNode, MaintCtx, OpConfig};
use crate::delta::{DeltaBatch, DeltaEntry};
use crate::error::CoreError;
use crate::obs::trace;
use crate::opt::nary_index::{ClassSpec, NarySideIndex};
use crate::Result;
use imp_sql::plan::NaryJoin;
use imp_sql::LogicalPlan;
use imp_storage::{AnnotId, FxHashMap, Row, Value};
use std::sync::Arc;

/// Lifecycle of one input's materialised index (mirrors the binary
/// operator's side states).
#[derive(Debug, Default)]
enum InputState {
    /// Not yet built (first probe builds it from one round trip).
    #[default]
    Absent,
    /// Live and maintained from the input's own deltas.
    Ready(NarySideIndex),
    /// Outgrew the budget: per-batch transient evaluation until the next
    /// [`NaryJoinOp::reset`].
    Disabled,
}

impl InputState {
    fn ready(&self) -> Option<&NarySideIndex> {
        match self {
            InputState::Ready(idx) => Some(idx),
            _ => None,
        }
    }
}

/// A partial join tuple mid-extension: the rows matched so far (slot per
/// input), the class values bound so far, and the running annotation /
/// signed multiplicity.
#[derive(Clone)]
struct Partial {
    parts: Vec<Option<Row>>,
    bound: Vec<Option<Value>>,
    annot: AnnotId,
    mult: i64,
}

/// Incremental n-ary equi-join operator over a canonicalized
/// [`NaryJoin`] (see [`imp_sql::plan::flatten_join`]).
#[derive(Debug)]
pub struct NaryJoinOp {
    children: Vec<IncNode>,
    plans: Vec<LogicalPlan>,
    /// Per input: the join classes it participates in.
    specs: Vec<ClassSpec>,
    n_classes: usize,
    states: Vec<InputState>,
    /// Greedy extension order per seeding input.
    orders: Vec<Vec<usize>>,
    index_budget: Option<usize>,
    /// Probes against each input's index, last completed batch.
    probes_last: Vec<u64>,
    /// Probes against each input's index, cumulative since build/reset.
    probes_total: Vec<u64>,
}

impl NaryJoinOp {
    /// Compile a canonical n-ary join. Every input must be stateless
    /// (checked by the caller for the whole subtree, same contract as
    /// the binary operator).
    pub fn new(nary: &NaryJoin, config: &OpConfig) -> Result<NaryJoinOp> {
        let n = nary.inputs.len();
        let children = nary
            .inputs
            .iter()
            .map(|p| IncNode::build(p, config))
            .collect::<Result<Vec<_>>>()?;
        let mut specs: Vec<ClassSpec> = vec![Vec::new(); n];
        for (class, members) in nary.classes.iter().enumerate() {
            for &(input, col) in members {
                let spec = &mut specs[input];
                match spec.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, cols)) => cols.push(col),
                    None => spec.push((class, vec![col])),
                }
            }
        }
        let orders = extension_orders(n, &specs);
        Ok(NaryJoinOp {
            children,
            plans: nary.inputs.clone(),
            specs,
            n_classes: nary.classes.len(),
            states: (0..n).map(|_| InputState::Absent).collect(),
            orders,
            index_budget: config.join_index_budget,
            probes_last: vec![0; n],
            probes_total: vec![0; n],
        })
    }

    /// Number of join inputs.
    pub fn arity(&self) -> usize {
        self.children.len()
    }

    /// Canonical shape signature: input plans plus equivalence classes
    /// (shape-equivalence tests compare these across parse trees).
    pub fn signature(&self) -> String {
        let inputs: Vec<String> = self
            .plans
            .iter()
            .map(|p| p.explain().replace('\n', " "))
            .collect();
        format!(
            "nary{}[{}] specs={:?}",
            self.arity(),
            inputs.join(" | "),
            self.specs
        )
    }

    /// Per-input probe counts of the last processed batch.
    pub fn probes_last(&self) -> &[u64] {
        &self.probes_last
    }

    /// Per-input probe counts since build/reset.
    pub fn probes_total(&self) -> &[u64] {
        &self.probes_total
    }

    /// Process one batch (see module docs for the telescoping rule).
    pub fn process(&mut self, ctx: &mut MaintCtx<'_>) -> Result<DeltaBatch> {
        let n = self.children.len();
        let mut deltas = Vec::with_capacity(n);
        for c in &mut self.children {
            deltas.push(c.process(ctx)?);
        }
        self.probes_last = vec![0; n];
        if deltas.iter().all(|d| d.is_empty()) {
            return Ok(DeltaBatch::new());
        }
        let _span = trace::span("nary_delta");
        // Per-batch transient indexes for inputs whose persistent index
        // is disabled/over budget, plus evaluation bookkeeping so
        // "round trip avoided" is only claimed when none happened.
        let mut transient: Vec<Option<NarySideIndex>> = (0..n).map(|_| None).collect();
        let mut evaluated = vec![false; n];
        let mut out = DeltaBatch::new();

        for i in 0..n {
            if !deltas[i].is_empty() {
                for j in (0..n).filter(|&j| j != i) {
                    self.ensure_view(j, i, &deltas, &mut transient, &mut evaluated, ctx)?;
                }
                self.probe_term(i, &deltas, &transient, &evaluated, &mut out, ctx)?;
            }
            // Term i done: absorb ΔRᵢ, moving the frontier one input right.
            self.absorb(i, &deltas[i], &mut transient, ctx);
        }
        for (t, l) in self.probes_total.iter_mut().zip(&self.probes_last) {
            *t += l;
        }
        Ok(crate::delta::normalize_delta(out))
    }

    /// Guarantee input `j` has a probe-able index at the state term `i`
    /// reads it (old when `j > i`, new when `j < i`). A missing index
    /// costs one backend evaluation — always at the new state — followed
    /// by a negated-delta rewind when input j's own term is still ahead.
    fn ensure_view(
        &mut self,
        j: usize,
        i: usize,
        deltas: &[DeltaBatch],
        transient: &mut [Option<NarySideIndex>],
        evaluated: &mut [bool],
        ctx: &mut MaintCtx<'_>,
    ) -> Result<()> {
        if self.states[j].ready().is_some() || transient[j].is_some() {
            return Ok(());
        }
        let side = super::join::eval_side(&self.plans[j], ctx)?;
        evaluated[j] = true;
        let mut idx = NarySideIndex::build(self.specs[j].clone(), &side, ctx.pool);
        if j > i && !deltas[j].is_empty() {
            idx.apply_negated(&deltas[j], ctx.pool);
        }
        let adopt = matches!(self.states[j], InputState::Absent)
            && self.index_budget.is_some_and(|b| idx.len() <= b);
        if adopt {
            ctx.metrics.join_index_builds += 1;
            self.states[j] = InputState::Ready(idx);
        } else {
            if matches!(self.states[j], InputState::Absent) && self.index_budget.is_some() {
                self.states[j] = InputState::Disabled;
            }
            transient[j] = Some(idx);
        }
        Ok(())
    }

    /// Absorb input i's delta into its live views (persistent and/or
    /// transient), bringing them to the new state for later terms.
    fn absorb(
        &mut self,
        i: usize,
        delta: &DeltaBatch,
        transient: &mut [Option<NarySideIndex>],
        ctx: &mut MaintCtx<'_>,
    ) {
        if delta.is_empty() {
            return;
        }
        if let InputState::Ready(idx) = &mut self.states[i] {
            idx.apply(delta, ctx.pool);
            if self.index_budget.is_some_and(|b| idx.len() > b) {
                self.states[i] = InputState::Disabled;
            }
        }
        if let Some(idx) = transient[i].as_mut() {
            idx.apply(delta, ctx.pool);
        }
    }

    /// Term i: seed partials from `ΔRᵢ`, extend along the greedy order,
    /// emit fully assembled rows in input order.
    fn probe_term(
        &mut self,
        i: usize,
        deltas: &[DeltaBatch],
        transient: &[Option<NarySideIndex>],
        evaluated: &[bool],
        out: &mut DeltaBatch,
        ctx: &mut MaintCtx<'_>,
    ) -> Result<()> {
        let _span = trace::span("nary_probe");
        let n = self.children.len();
        let mut partials: Vec<Partial> = Vec::with_capacity(deltas[i].len());
        'seed: for d in &deltas[i] {
            let mut bound = vec![None; self.n_classes];
            for (class, cols) in &self.specs[i] {
                let v = d.row[cols[0]].clone();
                if v.is_null() || cols[1..].iter().any(|&c| d.row[c] != v) {
                    continue 'seed; // this row can never join
                }
                bound[*class] = Some(v);
            }
            let mut parts = vec![None; n];
            parts[i] = Some(d.row.clone());
            partials.push(Partial {
                parts,
                bound,
                annot: d.annot,
                mult: d.mult,
            });
        }
        // Intern each distinct index annotation once per term (Arc
        // pointer identity stands in for the content hash).
        let mut interned: FxHashMap<usize, AnnotId> = FxHashMap::default();
        for &j in &self.orders[i] {
            if partials.is_empty() {
                return Ok(());
            }
            let (view, persistent) = match (self.states[j].ready(), transient[j].as_ref()) {
                (Some(idx), _) => (idx, true),
                (None, Some(idx)) => (idx, false),
                (None, None) => {
                    return Err(CoreError::StateCorrupt(format!(
                        "n-ary join input {j} has no probe-able view"
                    )))
                }
            };
            self.probes_last[j] += partials.len() as u64;
            if persistent {
                ctx.metrics.join_index_probes += partials.len() as u64;
                if !evaluated[j] {
                    ctx.metrics.db_roundtrips_avoided += 1;
                }
            } else {
                ctx.metrics.rows_sent_to_db += partials.len() as u64;
            }
            let spec_j = &self.specs[j];
            let mut next = Vec::new();
            for p in &partials {
                ctx.metrics.rows_processed += 1;
                let proj: Vec<Option<Value>> = spec_j
                    .iter()
                    .map(|(class, _)| p.bound[*class].clone())
                    .collect();
                view.for_each_match(&proj, &mut |key, entries| {
                    for e in entries {
                        let ptr = Arc::as_ptr(&e.annot) as usize;
                        let ea = match interned.get(&ptr) {
                            Some(&id) => id,
                            None => {
                                let id = ctx.pool.intern_arc(Arc::clone(&e.annot));
                                interned.insert(ptr, id);
                                id
                            }
                        };
                        let mut q = p.clone();
                        q.parts[j] = Some(e.row.clone());
                        q.annot = ctx.pool.union(p.annot, ea);
                        q.mult = p.mult * e.mult;
                        for (pos, (class, _)) in spec_j.iter().enumerate() {
                            if q.bound[*class].is_none() {
                                q.bound[*class] = Some(key[pos].clone());
                            }
                        }
                        next.push(q);
                    }
                });
            }
            partials = next;
        }
        for p in partials {
            let mut parts = p.parts.into_iter().map(Option::unwrap);
            let mut row = parts.next().expect("n-ary join has ≥ 2 inputs");
            for part in parts {
                row = row.concat(&part);
            }
            out.push(DeltaEntry {
                row,
                annot: p.annot,
                mult: p.mult,
            });
        }
        Ok(())
    }

    /// The input operators (state persistence walks the tree).
    pub fn children(&self) -> &[IncNode] {
        &self.children
    }

    /// Mutable input operators.
    pub fn children_mut(&mut self) -> &mut [IncNode] {
        &mut self.children
    }

    /// Drop all per-input indexes (a recapture rebuilds them on next
    /// use, giving previously over-budget inputs a fresh chance).
    pub fn reset(&mut self) {
        for s in &mut self.states {
            *s = InputState::Absent;
        }
        self.probes_last = vec![0; self.children.len()];
        self.probes_total = vec![0; self.children.len()];
        for c in &mut self.children {
            c.reset();
        }
    }

    /// Visit every annotation handle held by the per-input indexes.
    pub fn for_each_annot(&self, f: &mut dyn FnMut(&Arc<imp_storage::BitVec>)) {
        for idx in self.states.iter().filter_map(InputState::ready) {
            idx.for_each_annot(f);
        }
    }

    /// `(entries, bytes)` across the n per-input indexes — the *only*
    /// state this operator holds (no intermediate pair indexes exist;
    /// `fig_deep` asserts exactly this).
    pub fn index_state(&self) -> (usize, usize) {
        let mut entries = 0;
        let mut bytes = 0;
        for idx in self.states.iter().filter_map(InputState::ready) {
            entries += idx.len();
            bytes += idx.heap_size();
        }
        (entries, bytes)
    }

    /// Serialize the per-input indexes in input order.
    pub fn encode_state(&self, buf: &mut bytes::BytesMut) {
        for state in &self.states {
            match state {
                InputState::Absent => imp_storage::codec::encode_u64(buf, 0),
                InputState::Ready(idx) => {
                    imp_storage::codec::encode_u64(buf, 1);
                    idx.encode_state(buf);
                }
                InputState::Disabled => imp_storage::codec::encode_u64(buf, 2),
            }
        }
    }

    /// Restore state written by [`NaryJoinOp::encode_state`].
    pub fn decode_state(
        &mut self,
        buf: &mut bytes::Bytes,
        pool: &mut imp_storage::AnnotPool,
    ) -> Result<()> {
        for (j, side) in self.states.iter_mut().enumerate() {
            *side = match imp_storage::codec::decode_u64(buf)? {
                0 => InputState::Absent,
                1 => InputState::Ready(NarySideIndex::decode_state(
                    buf,
                    pool,
                    self.specs[j].clone(),
                )?),
                2 => InputState::Disabled,
                tag => {
                    return Err(CoreError::Codec(format!(
                        "invalid n-ary input index tag {tag}"
                    )))
                }
            };
        }
        Ok(())
    }

    /// Heap footprint (per-input indexes + children).
    pub fn heap_size(&self) -> usize {
        self.index_state().1 + self.children.iter().map(IncNode::heap_size).sum::<usize>()
    }
}

/// Greedy extension order per seeding input: repeatedly pick the input
/// with the most already-bound classes (fully bound beats partially
/// bound beats unbound; ties to the lowest input index). An unbound pick
/// is a disconnected cross-product component — that extension is a full
/// index scan and is *not* O(|Δ|); connected equi-joins never hit it.
fn extension_orders(n: usize, specs: &[ClassSpec]) -> Vec<Vec<usize>> {
    (0..n)
        .map(|seed| {
            let mut bound: Vec<bool> = Vec::new();
            let mark = |bound: &mut Vec<bool>, spec: &ClassSpec| {
                for (class, _) in spec {
                    if *class >= bound.len() {
                        bound.resize(class + 1, false);
                    }
                    bound[*class] = true;
                }
            };
            mark(&mut bound, &specs[seed]);
            let mut remaining: Vec<usize> = (0..n).filter(|&j| j != seed).collect();
            let mut order = Vec::with_capacity(n - 1);
            while !remaining.is_empty() {
                let best = remaining
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &j)| {
                        let hits = specs[j]
                            .iter()
                            .filter(|(c, _)| bound.get(*c).copied().unwrap_or(false))
                            .count();
                        (
                            hits == specs[j].len() && hits > 0,
                            hits,
                            std::cmp::Reverse(j),
                        )
                    })
                    .map(|(pos, _)| pos)
                    .expect("remaining is non-empty");
                let j = remaining.remove(best);
                mark(&mut bound, &specs[j]);
                order.push(j);
            }
            order
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_order_prefers_bound_inputs() {
        // Chain A(c0) — B(c0,c1) — C(c1,c2) — D(c2).
        let specs: Vec<ClassSpec> = vec![
            vec![(0, vec![1])],
            vec![(0, vec![0]), (1, vec![1])],
            vec![(1, vec![0]), (2, vec![1])],
            vec![(2, vec![0])],
        ];
        let orders = extension_orders(4, &specs);
        // Seeding at A: B first (bound via c0), then C, then D.
        assert_eq!(orders[0], vec![1, 2, 3]);
        // Seeding at D: C, then B, then A.
        assert_eq!(orders[3], vec![2, 1, 0]);
        // Seeding at B: both A and C have one bound class; A (lower
        // index, fully bound) wins, then C, then D.
        assert_eq!(orders[1], vec![0, 2, 3]);
    }

    #[test]
    fn disconnected_component_ordered_last() {
        // A(c0) — B(c0), and E with no classes at all.
        let specs: Vec<ClassSpec> = vec![vec![(0, vec![0])], vec![(0, vec![0])], vec![]];
        let orders = extension_orders(3, &specs);
        assert_eq!(orders[0], vec![1, 2]);
        assert_eq!(orders[2], vec![0, 1]);
    }
}
