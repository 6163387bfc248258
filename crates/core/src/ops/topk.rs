//! Incremental top-k (paper §5.2.7) with bounded buffers (§7.2, §8.4.3).
//!
//! State is a nested ordered map: the outer map orders entries by the
//! ORDER BY key (`BTreeMap` standing in for the paper's balanced search
//! tree); the inner map stores, per key, the multiplicity of each
//! annotated tuple `⟨t, P⟩`. The paper computes deltas the simple way —
//! delete the previous top-k, insert the updated one ("as k is typically
//! relatively small, we select a simple approach") — here the old/new
//! diff is *incremental*: the previously emitted top-k is cached together
//! with its boundary key, a batch whose touched keys all sort strictly
//! beyond the boundary of a full top-k is recognised as a no-op without
//! walking the state, and otherwise a single ordered merge of the cached
//! old against the recomputed new emits only the entries that actually
//! changed (instead of `-old ∪ +new` plus a normalization pass).
//!
//! Annotations are stored as `Arc<BitVec>` handles from
//! [`AnnotPool::share`](imp_storage::AnnotPool::share) — O(1) to obtain,
//! no per-entry bitvector copies — and keyed by *content*, so entry order
//! is canonical and survives state eviction / restore even though pool
//! ids are reassigned when the state is re-interned.
//!
//! With a bounded buffer only the best `l ≥ k` entries are stored; if
//! deletions exhaust the buffer below `k`, the operator requests a full
//! recapture (§8.4.3: "if there are less than k groups stored in the
//! state, our IMP will fully maintain the sketches").

use super::{IncNode, MaintCtx};
use crate::delta::{DeltaBatch, DeltaEntry};
use crate::Result;
use imp_sql::plan::sort_key_values;
use imp_sql::SortKey;
use imp_storage::{AnnotPool, BitVec, Row, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// ORDER BY key with per-column direction baked into its `Ord`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    vals: Vec<Value>,
    /// Ascending flags, parallel to `vals`.
    asc: Vec<bool>,
}

impl OrderKey {
    fn new(row: &Row, keys: &[SortKey]) -> OrderKey {
        OrderKey {
            vals: sort_key_values(row, keys),
            asc: keys.iter().map(|k| k.asc).collect(),
        }
    }
}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderKey {
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert_eq!(self.asc, other.asc);
        for ((a, b), asc) in self.vals.iter().zip(&other.vals).zip(&self.asc) {
            let ord = a.cmp(b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

type Entries = BTreeMap<(Row, Arc<BitVec>), i64>;

/// The top-k emitted at the end of the previous batch (`τ_{k,O}(S)`),
/// cached so a batch does not start by re-walking the state tree.
#[derive(Debug)]
struct TopKCache {
    /// The clipped top-k entries in state-iteration order, each carrying
    /// its ORDER BY key so the merge-diff compares without re-deriving.
    rows: Vec<(OrderKey, Row, Arc<BitVec>, i64)>,
    /// ORDER BY key of the last included entry; `None` when empty.
    boundary: Option<OrderKey>,
    /// Total clipped multiplicity (`min(k, Σ state multiplicities)`).
    total: i64,
}

/// Incremental top-k operator.
#[derive(Debug)]
pub struct TopKOp {
    input: Box<IncNode>,
    keys: Vec<SortKey>,
    k: u64,
    state: BTreeMap<OrderKey, Entries>,
    /// Keep at most this many annotated tuples; `None` = unbounded.
    buffer: Option<usize>,
    truncated: bool,
    entries: usize,
    /// Cached previous top-k; `None` after reset / restore (recomputed
    /// from the state before the next batch is ingested).
    cache: Option<TopKCache>,
}

impl TopKOp {
    /// New top-k operator.
    pub fn new(input: IncNode, keys: Vec<SortKey>, k: u64, buffer: Option<usize>) -> TopKOp {
        TopKOp {
            input: Box::new(input),
            keys,
            k,
            state: BTreeMap::new(),
            buffer,
            truncated: false,
            entries: 0,
            cache: None,
        }
    }

    /// Current top-k: walk keys in order, tuples per key in deterministic
    /// order, clipping the boundary tuple's multiplicity (`τ_{k,O}`).
    /// Rows and annotations come back as O(1) shared handles.
    fn compute_topk(&self) -> TopKCache {
        let mut rows = Vec::new();
        let mut boundary = None;
        let mut remaining = self.k as i64;
        'outer: for (key, entries) in &self.state {
            for ((row, annot), m) in entries {
                if remaining <= 0 {
                    break 'outer;
                }
                let take = (*m).min(remaining);
                rows.push((key.clone(), row.clone(), Arc::clone(annot), take));
                boundary = Some(key.clone());
                remaining -= take;
            }
        }
        TopKCache {
            rows,
            boundary,
            total: self.k as i64 - remaining.max(0),
        }
    }

    /// Ordered merge-diff of the cached old top-k against the recomputed
    /// new one: emits `-m` for entries that left, `+m` for entries that
    /// entered, and the signed multiplicity change for entries present in
    /// both — nothing for the (typical) unchanged prefix. Both inputs are
    /// in state-iteration order (ORDER BY key, then `(row, annotation)`),
    /// so one linear pass suffices.
    fn diff_topk(&self, old: &TopKCache, new: &TopKCache, pool: &mut AnnotPool) -> DeltaBatch {
        let mut out = DeltaBatch::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.rows.len() || j < new.rows.len() {
            let ord = match (old.rows.get(i), new.rows.get(j)) {
                (Some((ok, or, oa, _)), Some((nk, nr, na, _))) => (ok, or, oa).cmp(&(nk, nr, na)),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            match ord {
                Ordering::Less => {
                    let (_, row, annot, m) = &old.rows[i];
                    out.push(DeltaEntry {
                        row: row.clone(),
                        annot: pool.intern_arc(Arc::clone(annot)),
                        mult: -m,
                    });
                    i += 1;
                }
                Ordering::Greater => {
                    let (_, row, annot, m) = &new.rows[j];
                    out.push(DeltaEntry {
                        row: row.clone(),
                        annot: pool.intern_arc(Arc::clone(annot)),
                        mult: *m,
                    });
                    j += 1;
                }
                Ordering::Equal => {
                    let m = new.rows[j].3 - old.rows[i].3;
                    if m != 0 {
                        let (_, row, annot, _) = &new.rows[j];
                        out.push(DeltaEntry {
                            row: row.clone(),
                            annot: pool.intern_arc(Arc::clone(annot)),
                            mult: m,
                        });
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Worst stored key (the truncation horizon).
    fn horizon(&self) -> Option<&OrderKey> {
        self.state.keys().next_back()
    }

    /// Process one batch.
    pub fn process(&mut self, ctx: &mut MaintCtx<'_>) -> Result<DeltaBatch> {
        let input = self.input.process(ctx)?;
        if input.is_empty() {
            return Ok(DeltaBatch::new());
        }
        // Old top-k: the cache when valid, else (fresh operator or state
        // just restored from the codec) one walk of the pre-batch state.
        let old_topk = match self.cache.take() {
            Some(c) => c,
            None => self.compute_topk(),
        };
        // A batch leaves the top-k untouched iff the old top-k was full
        // and every touched key sorts strictly beyond its boundary.
        let mut dirty = false;

        for d in input {
            ctx.metrics.rows_processed += 1;
            let key = OrderKey::new(&d.row, &self.keys);
            dirty = dirty
                || old_topk.total < self.k as i64
                || old_topk.boundary.as_ref().is_none_or(|b| key <= *b);
            let annot = ctx.pool.share(d.annot);
            if d.mult > 0 {
                if self.truncated && self.horizon().is_some_and(|h| key > *h) {
                    // Beyond the horizon of a truncated buffer: cannot be
                    // in the top-k before a recapture happens (same prefix
                    // invariant as the bounded MIN/MAX state).
                    continue;
                }
                let entries = self.state.entry(key).or_default();
                let slot = entries.entry((d.row, annot)).or_insert(0);
                if *slot == 0 {
                    self.entries += 1;
                }
                *slot += d.mult;
                // Evict past the buffer bound.
                if let Some(l) = self.buffer {
                    while self.entries > l {
                        let Some(mut last) = self.state.last_entry() else {
                            break;
                        };
                        let victims = last.get_mut();
                        victims.pop_last();
                        self.entries -= 1;
                        if victims.is_empty() {
                            last.remove();
                        }
                        self.truncated = true;
                    }
                }
            } else {
                // Deletion.
                let beyond = self.horizon().is_none_or(|h| key > *h);
                match self.state.get_mut(&key) {
                    Some(entries) => {
                        let slot_key = (d.row, annot);
                        match entries.get_mut(&slot_key) {
                            Some(slot) => {
                                *slot += d.mult;
                                if *slot <= 0 {
                                    let corrupt = *slot < 0;
                                    entries.remove(&slot_key);
                                    self.entries -= 1;
                                    if entries.is_empty() {
                                        self.state.remove(&key);
                                    }
                                    if corrupt {
                                        ctx.needs_recapture = true;
                                    }
                                }
                            }
                            None => {
                                if !(self.truncated && beyond) {
                                    ctx.needs_recapture = true;
                                }
                            }
                        }
                    }
                    None => {
                        if !(self.truncated && beyond) {
                            ctx.needs_recapture = true;
                        }
                    }
                }
            }
        }

        // Buffer exhausted below k with evicted entries outstanding?
        if self.truncated {
            let total: i64 = self.state.values().flat_map(|e| e.values()).sum();
            if total < self.k as i64 {
                ctx.needs_recapture = true;
            }
        }
        if ctx.needs_recapture {
            // The maintainer will bootstrap from scratch; the cache dies
            // with the state.
            self.cache = None;
            return Ok(DeltaBatch::new());
        }

        if !dirty {
            // Every touched key sorts beyond the boundary of a full
            // top-k: `τ_{k,O}(S′) = τ_{k,O}(S)` without walking the state.
            self.cache = Some(old_topk);
            return Ok(DeltaBatch::new());
        }

        // Δ-τ_k(S) ∪ Δ+τ_k(S′), emitted as an ordered merge-diff so only
        // the entries that changed re-enter the pool (an O(1) content
        // probe for already-known annotations, no bitvector copy).
        let new_topk = self.compute_topk();
        let out = self.diff_topk(&old_topk, &new_topk, ctx.pool);
        self.cache = Some(new_topk);
        Ok(out)
    }

    /// Drop all state.
    pub fn reset(&mut self) {
        self.state.clear();
        self.entries = 0;
        self.truncated = false;
        self.cache = None;
        self.input.reset();
    }

    /// Number of stored annotated tuples (`l` in §8.4.3 / Fig. 15).
    pub fn stored_entries(&self) -> usize {
        self.entries
    }

    /// Visit every annotation handle held by this operator's state (the
    /// shared-ownership-aware accounting walk; the diff cache only clones
    /// handles already present in the state).
    pub fn for_each_annot(&self, f: &mut dyn FnMut(&Arc<BitVec>)) {
        for entries in self.state.values() {
            for (_, annot) in entries.keys() {
                f(annot);
            }
        }
    }

    /// Input child (state persistence walks the tree).
    pub fn input_child(&self) -> &IncNode {
        &self.input
    }

    /// Mutable input child.
    pub fn input_child_mut(&mut self) -> &mut IncNode {
        &mut self.input
    }

    /// Serialize the top-k state (annotations by content, so the encoding
    /// is independent of pool id assignment).
    pub fn encode_state(&self, buf: &mut bytes::BytesMut) {
        use imp_storage::codec::*;
        encode_u64(buf, self.truncated as u64);
        encode_u64(buf, self.state.len() as u64);
        for (key, entries) in &self.state {
            encode_row(buf, &Row::new(key.vals.clone()));
            encode_u64(buf, entries.len() as u64);
            for ((row, annot), m) in entries {
                encode_row(buf, row);
                encode_bitvec(buf, annot);
                encode_i64(buf, *m);
            }
        }
    }

    /// Restore state written by [`TopKOp::encode_state`], re-interning
    /// every annotation into `pool` so restored state shares allocations
    /// (and ids) with the live pipeline.
    pub fn decode_state(
        &mut self,
        buf: &mut bytes::Bytes,
        pool: &mut AnnotPool,
    ) -> crate::Result<()> {
        use imp_storage::codec::*;
        self.state.clear();
        self.entries = 0;
        self.cache = None;
        self.truncated = decode_u64(buf)? != 0;
        let n = decode_u64(buf)?;
        let asc: Vec<bool> = self.keys.iter().map(|k| k.asc).collect();
        for _ in 0..n {
            let key_row = decode_row(buf)?;
            let key = OrderKey {
                vals: key_row.values().to_vec(),
                asc: asc.clone(),
            };
            let len = decode_u64(buf)?;
            let mut entries = Entries::new();
            for _ in 0..len {
                let row = decode_row(buf)?;
                let annot = crate::state_codec::decode_annotation(buf, pool)?;
                entries.insert((row, annot), decode_i64(buf)?);
                self.entries += 1;
            }
            self.state.insert(key, entries);
        }
        Ok(())
    }

    /// Heap footprint of this operator's own state (excludes children) —
    /// the quantity Fig. 13e/f plots against the buffer bound. Annotation
    /// *contents* are not counted here: every stored `Arc<BitVec>` comes
    /// from the maintainer's pool, whose `heap_size` already accounts for
    /// the bitvectors — only the per-entry handle overhead is ours.
    pub fn own_heap_size(&self) -> usize {
        let mut size = 0usize;
        for (key, entries) in &self.state {
            size += key.vals.len() * std::mem::size_of::<Value>()
                + key.vals.iter().map(Value::heap_size).sum::<usize>()
                + 48;
            for (row, _annot) in entries.keys() {
                size += row.heap_size() + std::mem::size_of::<Arc<BitVec>>() + 56;
            }
        }
        size
    }

    /// Heap footprint of the state (Fig. 15 memory plots).
    pub fn heap_size(&self) -> usize {
        self.own_heap_size() + self.input.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_key_directions() {
        let keys = [
            SortKey {
                column: 0,
                asc: false,
            },
            SortKey {
                column: 1,
                asc: true,
            },
        ];
        let a = OrderKey::new(&imp_storage::row![5, 1], &keys);
        let b = OrderKey::new(&imp_storage::row![3, 0], &keys);
        // DESC on column 0: 5 sorts before 3.
        assert!(a < b);
        let c = OrderKey::new(&imp_storage::row![5, 0], &keys);
        assert!(c < a);
    }

    #[test]
    fn wrong_width_annotation_is_rejected_on_load() {
        use crate::maintain::SketchMaintainer;
        use crate::ops::OpConfig;
        use crate::state_codec::{load_state, save_state};
        use imp_sketch::{PartitionSet, RangePartition};
        use imp_storage::{row, DataType, Field, Schema};

        let mut db = imp_engine::Database::new();
        db.create_table(
            "sales",
            Schema::new(vec![
                Field::new("brand", DataType::Str),
                Field::new("price", DataType::Int),
            ]),
        )
        .unwrap();
        db.table_mut("sales")
            .unwrap()
            .bulk_load([row!["HP", 999], row!["Dell", 1345], row!["Apple", 3875]])
            .unwrap();
        let pset = Arc::new(
            PartitionSet::new(vec![RangePartition::new(
                "sales",
                "price",
                1,
                vec![Value::Int(1001), Value::Int(2001)],
            )
            .unwrap()])
            .unwrap(),
        );
        let width = pset.total_fragments() as u64;
        let plan = db
            .plan_sql("SELECT brand, price FROM sales ORDER BY price DESC LIMIT 2")
            .unwrap();
        let (mut m, _) =
            SketchMaintainer::capture(&plan, &db, pset, OpConfig::default(), true).unwrap();
        assert!(m.topk_state().is_some());

        // The top-k state is encoded last; it ends with one entry's
        // annotation (width word + one bit word) and its multiplicity.
        let mut raw = save_state(&m).to_vec();
        let at = raw.len() - 24;
        assert_eq!(raw[at..at + 8], width.to_le_bytes());
        raw[at..at + 8].copy_from_slice(&(width + 1).to_le_bytes());

        let err = load_state(&mut m, bytes::Bytes::from(raw)).unwrap_err();
        assert!(
            matches!(&err, crate::CoreError::Codec(msg) if msg.contains("width")),
            "{err:?}"
        );
    }
}
