//! Incremental join / cross product (paper §5.2.4) with bloom-filter
//! delta pruning (§7.2) and delta-maintained side indexes.
//!
//! The paper's rule combines three terms over the *old* states:
//! `ΔQ₁ ⋈ Q₂(𝒟) ∪ Q₁(𝒟) ⋈ ΔQ₂ ∪ ΔQ₁ ⋈ ΔQ₂` with sign cases
//! (del×del → insert, del×ins → delete, …). The backend database is
//! already at the *new* state when maintenance runs, so we use the
//! equivalent rewriting over new states:
//!
//! ```text
//! Δ(Q₁ ⋈ Q₂) = ΔQ₁ ⋈ Q₂ᴺᴱᵂ + Q₁ᴺᴱᵂ ⋈ ΔQ₂ − ΔQ₁ ⋈ ΔQ₂
//! ```
//!
//! where signed multiplicities multiply (the sign cases fall out of the
//! algebra).
//!
//! # Side indexes: `Q ⋈ Δ` without round trips
//!
//! The `Q ⋈ Δ` terms are "outsourced to the backend database" (§1, §7):
//! evaluating the non-delta side is a round trip counted in the metrics.
//! Instead of paying it per batch, each side is materialised on first use
//! as a [`JoinSideIndex`] — one round trip — and then maintained *in
//! place*: the operator already holds exactly the delta that separates
//! the side's states (`Q₂ᴺᴱᵂ = Q₂ᴼᴸᴰ + ΔQ₂`), so each batch first
//! absorbs the children's own deltas into their indexes (bringing them to
//! the new state the rewriting above expects; an index built this batch
//! comes from a new-state evaluation and already includes the delta) and
//! then probes them for Terms 1/2. Steady-state join maintenance is
//! thereby O(|Δ|) amortized with **zero** backend round trips.
//!
//! The indexes are memory-bounded by `OpConfig::join_index_budget`
//! (annotated tuples per side): a side over budget is dropped and the
//! operator falls back to the per-batch outsourced evaluation until the
//! next recapture, mirroring the bounded MIN/MAX state's fallback. Index
//! state is persisted/restored through `state_codec` (annotations by
//! content, re-interned on restore) and accounted in [`JoinOp::heap_size`].
//!
//! # Bloom filters
//!
//! Bloom filters on the join keys prune delta tuples without partners
//! and can skip an outsourced round trip entirely; with an index present
//! they are rebuilt from its keys without touching the backend, and both
//! are dropped together on [`JoinOp::reset`]. The filters summarise keys
//! of *both* insert and delete deltas: a delete's key on one side must
//! stay visible to the other side's delta, otherwise the Term 3
//! cancellation `− ΔQ₁ ⋈ ΔQ₂` is silently lost while Term 1/2 still emit
//! the matching signed rows — wrong multiplicities and a wrong sketch.
//!
//! Output annotations are produced by the memoized
//! [`AnnotPool::union`](imp_storage::AnnotPool::union): a delta tuple that
//! matches many partners in the same fragment combination pays for one
//! union, not one allocation per output row.

use super::{IncNode, MaintCtx, OpConfig};
use crate::delta::{DeltaBatch, DeltaEntry};
use crate::obs::trace;
use crate::opt::side_index::key_of;
use crate::opt::{BloomFilter, JoinSideIndex};
use crate::Result;
use imp_sketch::capture::eval_annot;
use imp_sql::LogicalPlan;
use imp_storage::{FxHashMap, Value};
use std::sync::Arc;

/// One side's extracted join-key column: `col[i]` is the key of delta row
/// `i`, `None` for NULL keys (which never join).
type KeyColumn = Vec<Option<Vec<Value>>>;

/// Project a whole delta's join keys into one key column. Every consumer
/// of the batch (bloom maintenance, pruning, the three join terms) reads
/// this column instead of re-projecting rows.
fn extract_keys(delta: &DeltaBatch, keys: &[usize]) -> KeyColumn {
    delta.iter().map(|d| key_of(&d.row, keys)).collect()
}

/// Lifecycle of one side's materialised index.
#[derive(Debug, Default)]
enum SideState {
    /// Not yet built (first use builds it from one round trip).
    #[default]
    Absent,
    /// Live and maintained from the side's own deltas.
    Ready(JoinSideIndex),
    /// Outgrew the budget: per-batch outsourced evaluation until the next
    /// [`JoinOp::reset`] (rebuilding would exhaust the budget again).
    Disabled,
}

impl SideState {
    fn ready(&self) -> Option<&JoinSideIndex> {
        match self {
            SideState::Ready(idx) => Some(idx),
            _ => None,
        }
    }
}

/// Incremental join operator.
#[derive(Debug)]
pub struct JoinOp {
    left: Box<IncNode>,
    right: Box<IncNode>,
    left_plan: LogicalPlan,
    right_plan: LogicalPlan,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    /// Keys present on the left side (filters Δright).
    left_bloom: Option<BloomFilter>,
    /// Keys present on the right side (filters Δleft).
    right_bloom: Option<BloomFilter>,
    bloom_enabled: bool,
    /// Materialised left side (probed by Term 2).
    left_index: SideState,
    /// Materialised right side (probed by Term 1).
    right_index: SideState,
    /// Max annotated tuples per side index; `None` disables the indexes.
    index_budget: Option<usize>,
}

impl JoinOp {
    /// New join operator over two stateless inputs.
    pub fn new(
        left: IncNode,
        right: IncNode,
        left_plan: LogicalPlan,
        right_plan: LogicalPlan,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        config: &OpConfig,
    ) -> JoinOp {
        JoinOp {
            left: Box::new(left),
            right: Box::new(right),
            left_plan,
            right_plan,
            left_keys,
            right_keys,
            left_bloom: None,
            right_bloom: None,
            // Bloom filters only make sense for equi-joins.
            bloom_enabled: config.bloom,
            left_index: SideState::Absent,
            right_index: SideState::Absent,
            index_budget: config.join_index_budget,
        }
    }

    /// Process one batch (see module docs for the delta rule).
    pub fn process(&mut self, ctx: &mut MaintCtx<'_>) -> Result<DeltaBatch> {
        let dl = self.left.process(ctx)?;
        let dr = self.right.process(ctx)?;
        if dl.is_empty() && dr.is_empty() {
            return Ok(DeltaBatch::new());
        }
        let _span = trace::span("join_delta");
        let use_bloom = self.bloom_enabled && !self.left_keys.is_empty();
        let mut out = DeltaBatch::new();

        // Evaluated sides are cached across uses within this batch; the
        // flags record whether the side's round trip already happened
        // this batch (round trips "avoided" by an index are only counted
        // when no evaluation of that side occurred at all).
        let mut left_side: Option<DeltaBatch> = None;
        let mut right_side: Option<DeltaBatch> = None;
        let mut left_evaluated = false;
        let mut right_evaluated = false;

        // Bring the side indexes to the new state (`Qᴺᴱᵂ = Qᴼᴸᴰ + ΔQ`)
        // before any term is computed: an existing index absorbs its own
        // child's *unfiltered* delta; an absent index is built lazily,
        // only once the other side has a delta that will probe it — the
        // build evaluates the side at the new state, so the current delta
        // is already included.
        sync_index(
            &mut self.left_index,
            &dl,
            !dr.is_empty(),
            &self.left_plan,
            &self.left_keys,
            self.index_budget,
            &mut left_side,
            &mut left_evaluated,
            ctx,
        )?;
        sync_index(
            &mut self.right_index,
            &dr,
            !dl.is_empty(),
            &self.right_plan,
            &self.right_keys,
            self.index_budget,
            &mut right_side,
            &mut right_evaluated,
            ctx,
        )?;

        // Each delta's join keys are projected once into a key column
        // shared by bloom maintenance, pruning, and all three terms below.
        let dl_keys = extract_keys(&dl, &self.left_keys);
        let dr_keys = extract_keys(&dr, &self.right_keys);

        // Keep the bloom filters in sync *before* filtering: new keys from
        // this batch's deltas must be visible (no false negatives). Each
        // side's filter is built lazily, only once the *other* side has a
        // delta worth pruning — from the side's index when one is live
        // (no round trip), otherwise from one scan of that side.
        if use_bloom {
            if !dl.is_empty() && self.right_bloom.is_none() {
                self.right_bloom = Some(build_bloom(
                    self.right_index.ready(),
                    &self.right_plan,
                    &self.right_keys,
                    &mut right_side,
                    &mut right_evaluated,
                    ctx,
                )?);
            }
            if !dr.is_empty() && self.left_bloom.is_none() {
                self.left_bloom = Some(build_bloom(
                    self.left_index.ready(),
                    &self.left_plan,
                    &self.left_keys,
                    &mut left_side,
                    &mut left_evaluated,
                    ctx,
                )?);
            }
            // The deltas are already part of the new table state, but the
            // blooms may predate them. Keys of *deletions* are inserted
            // too: the other side's delta needs them to survive pruning so
            // Term 3 can cancel (a bloom is insert-only either way — a
            // stale positive only costs a wasted probe).
            if let Some(b) = self.right_bloom.as_mut() {
                for k in dr_keys.iter().flatten() {
                    b.insert(k);
                }
            }
            if let Some(b) = self.left_bloom.as_mut() {
                for k in dl_keys.iter().flatten() {
                    b.insert(k);
                }
            }
        }

        // Bloom-prune the deltas (only correct for equi-joins). The key
        // column is filtered in lockstep so the terms keep index-aligned
        // keys without re-extraction.
        let (dl_f, dl_fk) = bloom_filter_delta(&dl, dl_keys, &self.right_bloom, use_bloom, ctx);
        let (dr_f, dr_fk) = bloom_filter_delta(&dr, dr_keys, &self.left_bloom, use_bloom, ctx);

        // Term 1: ΔQ₁ ⋈ Q₂ᴺᴱᵂ — answered by the right index, or
        // outsourced to the backend when none is live.
        if !dl_f.is_empty() {
            let _span = trace::span("join_probe_right");
            if let Some(idx) = self.right_index.ready() {
                ctx.metrics.join_index_probes += dl_f.len() as u64;
                if !right_evaluated {
                    ctx.metrics.db_roundtrips_avoided += 1;
                }
                probe_index(&dl_f, &dl_fk, idx, false, &mut out, ctx);
            } else {
                let side = match right_side.take() {
                    Some(s) => s,
                    None => {
                        ctx.metrics.rows_sent_to_db += dl_f.len() as u64;
                        eval_side(&self.right_plan, ctx)?
                    }
                };
                let table = build_hash(&side, &self.right_keys);
                probe_hash(&dl_f, &dl_fk, &table, false, &mut out, ctx);
            }
        }

        // Term 2: Q₁ᴺᴱᵂ ⋈ ΔQ₂.
        if !dr_f.is_empty() {
            let _span = trace::span("join_probe_left");
            if let Some(idx) = self.left_index.ready() {
                ctx.metrics.join_index_probes += dr_f.len() as u64;
                if !left_evaluated {
                    ctx.metrics.db_roundtrips_avoided += 1;
                }
                probe_index(&dr_f, &dr_fk, idx, true, &mut out, ctx);
            } else {
                let side = match left_side.take() {
                    Some(s) => s,
                    None => {
                        ctx.metrics.rows_sent_to_db += dr_f.len() as u64;
                        eval_side(&self.left_plan, ctx)?
                    }
                };
                let table = build_hash(&side, &self.left_keys);
                probe_hash(&dr_f, &dr_fk, &table, true, &mut out, ctx);
            }
        }

        // Term 3: − ΔQ₁ ⋈ ΔQ₂ (fully in memory). The build side hashes
        // *references into* the right key column and stores row indexes —
        // no key is cloned or re-projected on either side.
        if !dl_f.is_empty() && !dr_f.is_empty() {
            let _span = trace::span("join_delta_delta");
            let mut dr_hash: FxHashMap<&Vec<Value>, Vec<u32>> = FxHashMap::default();
            for (i, k) in dr_fk.iter().enumerate() {
                if let Some(k) = k {
                    dr_hash.entry(k).or_default().push(i as u32);
                }
            }
            for (d, k) in dl_f.iter().zip(&dl_fk) {
                let Some(k) = k else {
                    continue;
                };
                if let Some(matches) = dr_hash.get(k) {
                    for &i in matches {
                        let r = &dr_f[i as usize];
                        out.push(DeltaEntry {
                            row: d.row.concat(&r.row),
                            annot: ctx.pool.union(d.annot, r.annot),
                            mult: -(d.mult * r.mult),
                        });
                    }
                }
            }
        }

        Ok(crate::delta::normalize_delta(out))
    }

    /// Left child (state persistence walks the tree).
    pub fn left_child(&self) -> &IncNode {
        &self.left
    }

    /// Right child.
    pub fn right_child(&self) -> &IncNode {
        &self.right
    }

    /// Mutable children.
    pub fn children_mut(&mut self) -> (&mut IncNode, &mut IncNode) {
        (&mut self.left, &mut self.right)
    }

    /// Drop bloom filters and side indexes together (both summarise the
    /// same side states; a recapture rebuilds both on next use, giving a
    /// previously over-budget side a fresh chance).
    pub fn reset(&mut self) {
        self.left_bloom = None;
        self.right_bloom = None;
        self.left_index = SideState::Absent;
        self.right_index = SideState::Absent;
        self.left.reset();
        self.right.reset();
    }

    /// Visit every annotation handle held by this operator's own state
    /// (the shared-ownership-aware accounting walk over the side indexes).
    pub fn for_each_annot(&self, f: &mut dyn FnMut(&std::sync::Arc<imp_storage::BitVec>)) {
        for idx in [self.left_index.ready(), self.right_index.ready()]
            .into_iter()
            .flatten()
        {
            idx.for_each_annot(f);
        }
    }

    /// `(entries, bytes)` of this operator's own side indexes.
    pub fn index_state(&self) -> (usize, usize) {
        let mut entries = 0;
        let mut bytes = 0;
        for idx in [self.left_index.ready(), self.right_index.ready()]
            .into_iter()
            .flatten()
        {
            entries += idx.len();
            bytes += idx.heap_size();
        }
        (entries, bytes)
    }

    /// Serialize the side indexes (blooms are rebuilt lazily instead).
    pub fn encode_state(&self, buf: &mut bytes::BytesMut) {
        for state in [&self.left_index, &self.right_index] {
            match state {
                SideState::Absent => imp_storage::codec::encode_u64(buf, 0),
                SideState::Ready(idx) => {
                    imp_storage::codec::encode_u64(buf, 1);
                    idx.encode_state(buf);
                }
                SideState::Disabled => imp_storage::codec::encode_u64(buf, 2),
            }
        }
    }

    /// Restore state written by [`JoinOp::encode_state`], re-interning
    /// the indexed annotations into `pool`.
    pub fn decode_state(
        &mut self,
        buf: &mut bytes::Bytes,
        pool: &mut imp_storage::AnnotPool,
    ) -> Result<()> {
        for side in [&mut self.left_index, &mut self.right_index] {
            *side = match imp_storage::codec::decode_u64(buf)? {
                0 => SideState::Absent,
                1 => SideState::Ready(JoinSideIndex::decode_state(buf, pool)?),
                2 => SideState::Disabled,
                tag => {
                    return Err(crate::error::CoreError::Codec(format!(
                        "invalid join-side index tag {tag}"
                    )))
                }
            };
        }
        Ok(())
    }

    /// Heap footprint (bloom filters + side indexes + children).
    pub fn heap_size(&self) -> usize {
        self.left_bloom.as_ref().map_or(0, BloomFilter::heap_size)
            + self.right_bloom.as_ref().map_or(0, BloomFilter::heap_size)
            + self.index_state().1
            + self.left.heap_size()
            + self.right.heap_size()
    }
}

/// Bring one side's index to the new state: apply the side's own delta to
/// a live index (dropping it when it outgrows the budget), or build it
/// from one new-state evaluation when `probed` and not yet materialised.
#[allow(clippy::too_many_arguments)]
fn sync_index(
    state: &mut SideState,
    delta: &DeltaBatch,
    probed: bool,
    plan: &LogicalPlan,
    keys: &[usize],
    budget: Option<usize>,
    cache: &mut Option<DeltaBatch>,
    evaluated: &mut bool,
    ctx: &mut MaintCtx<'_>,
) -> Result<()> {
    match state {
        SideState::Ready(_) if delta.is_empty() => {}
        SideState::Ready(idx) => {
            idx.apply(delta, keys, ctx.pool);
            if budget.is_some_and(|b| idx.len() > b) {
                *state = SideState::Disabled;
            }
        }
        SideState::Absent if probed && budget.is_some() => {
            let side = eval_side(plan, ctx)?;
            *evaluated = true;
            // Budget the *merged* index size, not the raw evaluation:
            // NULL-keyed rows are excluded and duplicates fold, so the
            // index can fit where the bag would not.
            let idx = JoinSideIndex::build(&side, keys, ctx.pool);
            if budget.is_some_and(|b| idx.len() > b) {
                *state = SideState::Disabled;
            } else {
                ctx.metrics.join_index_builds += 1;
                *state = SideState::Ready(idx);
            }
            *cache = Some(side);
        }
        _ => {}
    }
    Ok(())
}

/// Build one side's bloom filter: from a live index's keys (free), or
/// from one evaluation of the side (cached for the terms).
fn build_bloom(
    index: Option<&JoinSideIndex>,
    plan: &LogicalPlan,
    keys: &[usize],
    cache: &mut Option<DeltaBatch>,
    evaluated: &mut bool,
    ctx: &mut MaintCtx<'_>,
) -> Result<BloomFilter> {
    if let Some(idx) = index {
        let mut bloom = BloomFilter::with_capacity(idx.len());
        for k in idx.keys() {
            bloom.insert(k);
        }
        return Ok(bloom);
    }
    let side = match cache.take() {
        Some(s) => s,
        None => {
            let s = eval_side(plan, ctx)?;
            *evaluated = true;
            s
        }
    };
    let mut bloom = BloomFilter::with_capacity(side.len());
    for e in &side {
        if let Some(k) = key_of(&e.row, keys) {
            bloom.insert(&k);
        }
    }
    *cache = Some(side);
    Ok(bloom)
}

/// Keep only delta rows whose key might have a partner on the other side.
/// The pre-extracted key column is filtered in lockstep with the batch so
/// surviving entries keep their index-aligned keys.
fn bloom_filter_delta(
    delta: &DeltaBatch,
    keys_col: KeyColumn,
    other_bloom: &Option<BloomFilter>,
    use_bloom: bool,
    ctx: &mut MaintCtx<'_>,
) -> (DeltaBatch, KeyColumn) {
    match (other_bloom, use_bloom) {
        (Some(b), true) => {
            let before = delta.len();
            let mut kept = DeltaBatch::new();
            let mut kept_keys = KeyColumn::new();
            for (d, k) in delta.iter().zip(keys_col) {
                if k.as_ref().is_some_and(|k| b.may_contain(k)) {
                    kept.push(d.clone());
                    kept_keys.push(k);
                }
            }
            ctx.metrics.bloom_pruned += (before - kept.len()) as u64;
            (kept, kept_keys)
        }
        _ => (delta.clone(), keys_col),
    }
}

/// Probe a side index with a (filtered) delta, emitting one signed output
/// row per match. `side_on_left` orders the concatenation: Term 2 places
/// the indexed (left) side first.
fn probe_index(
    delta: &DeltaBatch,
    keys_col: &KeyColumn,
    index: &JoinSideIndex,
    side_on_left: bool,
    out: &mut DeltaBatch,
    ctx: &mut MaintCtx<'_>,
) {
    // Intern each distinct entry annotation once per probe, not once per
    // (delta row × match): the handles are shared `Arc`s, so pointer
    // identity stands in for the content hash after the first sighting.
    let mut interned: FxHashMap<usize, imp_storage::AnnotId> = FxHashMap::default();
    for (d, k) in delta.iter().zip(keys_col) {
        ctx.metrics.rows_processed += 1;
        let Some(k) = k else {
            continue;
        };
        let Some(matches) = index.get(k) else {
            continue;
        };
        for e in matches {
            let ptr = Arc::as_ptr(&e.annot) as usize;
            let ea = match interned.get(&ptr) {
                Some(&id) => id,
                None => {
                    let id = ctx.pool.intern_arc(Arc::clone(&e.annot));
                    interned.insert(ptr, id);
                    id
                }
            };
            let row = if side_on_left {
                e.row.concat(&d.row)
            } else {
                d.row.concat(&e.row)
            };
            out.push(DeltaEntry {
                row,
                annot: ctx.pool.union(d.annot, ea),
                mult: d.mult * e.mult,
            });
        }
    }
}

/// Probe an evaluated side's hash table with a (filtered) delta — the
/// outsourced-fallback twin of [`probe_index`], same `side_on_left`
/// contract.
fn probe_hash(
    delta: &DeltaBatch,
    keys_col: &KeyColumn,
    table: &FxHashMap<Vec<Value>, Vec<&DeltaEntry>>,
    side_on_left: bool,
    out: &mut DeltaBatch,
    ctx: &mut MaintCtx<'_>,
) {
    for (d, k) in delta.iter().zip(keys_col) {
        ctx.metrics.rows_processed += 1;
        let Some(k) = k else {
            continue;
        };
        let Some(matches) = table.get(k) else {
            continue;
        };
        for e in matches {
            let row = if side_on_left {
                e.row.concat(&d.row)
            } else {
                d.row.concat(&e.row)
            };
            out.push(DeltaEntry {
                row,
                annot: ctx.pool.union(d.annot, e.annot),
                mult: d.mult * e.mult,
            });
        }
    }
}

/// Evaluate one (stateless) join side against the backend: a DB round trip.
/// The side's annotations are interned into the run's pool. Shared with
/// the n-ary operator, whose inputs follow the same contract.
pub(super) fn eval_side(plan: &LogicalPlan, ctx: &mut MaintCtx<'_>) -> Result<DeltaBatch> {
    ctx.metrics.db_roundtrips += 1;
    let mut scanned = 0u64;
    let bag = eval_annot(plan, ctx.db, ctx.pset, ctx.pool, &mut scanned)?;
    ctx.metrics.db_rows_scanned += scanned;
    Ok(bag)
}

fn build_hash<'a>(
    side: &'a DeltaBatch,
    keys: &[usize],
) -> FxHashMap<Vec<Value>, Vec<&'a DeltaEntry>> {
    let mut table: FxHashMap<Vec<Value>, Vec<&DeltaEntry>> = FxHashMap::default();
    for entry in side.iter() {
        if let Some(k) = key_of(&entry.row, keys) {
            table.entry(k).or_default().push(entry);
        }
    }
    table
}
