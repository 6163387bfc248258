//! Per-input hash indexes for the n-ary join operator.
//!
//! A [`NarySideIndex`] materialises one *input* of an n-ary equi-join —
//! the same delta-maintained `(row, annotation, multiplicity)` bag as
//! [`super::JoinSideIndex`], but keyed for multi-way probing: the primary
//! key is the input's full join-key participation (one value per
//! equivalence class the input joins on), and per-class secondary maps
//! support *partially bound* probes. A chain join `A ⋈ B ⋈ C` probing
//! `C` from a `ΔA` seed knows only `B`-adjacent classes, so the probe
//! binds a subset of `C`'s classes; the secondary map on that class
//! narrows the candidates without scanning the whole input.
//!
//! Buckets live in an arena indexed by both maps. Deletion is lazy in
//! the secondaries: a bucket whose entries cancel away is emptied and
//! unlinked from the primary, while secondary lists keep the stale slot
//! id (probes skip empty buckets) until a compaction pass rebuilds the
//! arena — amortized O(|Δ|).
//!
//! Annotations are `Arc<BitVec>` content handles (pool-independent),
//! exactly like [`super::JoinSideIndex`] — see that module's docs for
//! the persistence rules. The codec writes the primary contents only;
//! secondaries are derived data, rebuilt on decode.

use crate::delta::DeltaBatch;
use crate::opt::side_index::{annot_eq, entry_heap, key_heap, IndexEntry};
use imp_storage::{codec, AnnotPool, BitVec, FxHashMap, Row, Value};
use std::sync::Arc;

/// One input's class participation: `(class id, columns of this input in
/// that class)`, ascending by class id. An input whose row carries the
/// same class in several columns (self-equality) only indexes rows where
/// those columns agree — others can never join.
pub type ClassSpec = Vec<(usize, Vec<usize>)>;

/// Rebuild the arena once more than half of it is dead and the dead run
/// is big enough to be worth the rebuild.
const COMPACT_MIN_DEAD: usize = 16;

#[derive(Debug, Clone, Default)]
struct Bucket {
    key: Vec<Value>,
    entries: Vec<IndexEntry>,
}

/// A persistent, delta-maintained index over one n-ary join input.
#[derive(Debug, Clone, Default)]
pub struct NarySideIndex {
    spec: ClassSpec,
    buckets: Vec<Bucket>,
    /// Full participation key (one value per spec position) → arena slot.
    primary: FxHashMap<Vec<Value>, u32>,
    /// Per spec position: class value → arena slots (may hold stale ids
    /// of emptied buckets — probes skip them, compaction drops them).
    secondary: Vec<FxHashMap<Value, Vec<u32>>>,
    entries: usize,
    heap_bytes: usize,
    dead: usize,
}

/// The input's participation key for a row: one value per spec position,
/// `None` when any key column is NULL or the input's own columns of a
/// class disagree (such a row joins nothing).
pub fn participation_key(row: &Row, spec: &ClassSpec) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(spec.len());
    for (_, cols) in spec {
        let v = row[cols[0]].clone();
        if v.is_null() {
            return None;
        }
        if cols[1..].iter().any(|&c| row[c] != v) {
            return None;
        }
        key.push(v);
    }
    Some(key)
}

impl NarySideIndex {
    /// Empty index for a participation spec.
    pub fn new(spec: ClassSpec) -> NarySideIndex {
        let secondary = (0..spec.len()).map(|_| FxHashMap::default()).collect();
        NarySideIndex {
            spec,
            secondary,
            ..NarySideIndex::default()
        }
    }

    /// Build from a full evaluation of the input (one backend round trip,
    /// already at the state the index should represent).
    pub fn build(spec: ClassSpec, side: &DeltaBatch, pool: &AnnotPool) -> NarySideIndex {
        let mut idx = NarySideIndex::new(spec);
        idx.apply(side, pool);
        idx
    }

    /// The participation spec this index was built for.
    pub fn spec(&self) -> &ClassSpec {
        &self.spec
    }

    /// Absorb one delta of the input (`Qᴺᴱᵂ = Qᴼᴸᴰ + ΔQ`); entries merge
    /// by `(row, annotation content)` and cancel at zero multiplicity.
    pub fn apply(&mut self, delta: &DeltaBatch, pool: &AnnotPool) {
        self.apply_signed(delta, pool, 1);
    }

    /// Absorb a delta with *negated* multiplicities: rewinds an index
    /// evaluated at the new state back to the old one (the n-ary rule
    /// probes inputs right of the current term at their old state).
    pub fn apply_negated(&mut self, delta: &DeltaBatch, pool: &AnnotPool) {
        self.apply_signed(delta, pool, -1);
    }

    fn apply_signed(&mut self, delta: &DeltaBatch, pool: &AnnotPool, sign: i64) {
        for d in delta {
            let Some(key) = participation_key(&d.row, &self.spec) else {
                continue;
            };
            let mult = d.mult * sign;
            let annot = pool.share(d.annot);
            match self.primary.get(&key) {
                Some(&slot) => {
                    let bucket = &mut self.buckets[slot as usize];
                    let pos = bucket
                        .entries
                        .iter()
                        .position(|e| annot_eq(&e.annot, &annot) && e.row == d.row);
                    match pos {
                        Some(i) => {
                            bucket.entries[i].mult += mult;
                            if bucket.entries[i].mult == 0 {
                                self.heap_bytes -= entry_heap(&bucket.entries[i]);
                                self.entries -= 1;
                                bucket.entries.swap_remove(i);
                                if bucket.entries.is_empty() {
                                    self.heap_bytes -= key_heap(&key);
                                    // Lazy delete: unlink from the primary,
                                    // leave stale slot ids in the secondaries.
                                    bucket.key = Vec::new();
                                    self.primary.remove(&key);
                                    self.dead += 1;
                                }
                            }
                        }
                        None => {
                            let e = IndexEntry {
                                row: d.row.clone(),
                                annot,
                                mult,
                            };
                            self.heap_bytes += entry_heap(&e);
                            self.entries += 1;
                            bucket.entries.push(e);
                        }
                    }
                }
                None => {
                    let e = IndexEntry {
                        row: d.row.clone(),
                        annot,
                        mult,
                    };
                    self.heap_bytes += key_heap(&key) + entry_heap(&e);
                    self.entries += 1;
                    let slot = self.buckets.len() as u32;
                    for (pos, v) in key.iter().enumerate() {
                        self.secondary[pos].entry(v.clone()).or_default().push(slot);
                    }
                    self.buckets.push(Bucket {
                        key: key.clone(),
                        entries: vec![e],
                    });
                    self.primary.insert(key, slot);
                }
            }
        }
        if self.dead > COMPACT_MIN_DEAD && self.dead * 2 > self.buckets.len() {
            self.compact();
        }
    }

    /// Rebuild the arena and both map layers from the live buckets.
    fn compact(&mut self) {
        let buckets: Vec<Bucket> = std::mem::take(&mut self.buckets)
            .into_iter()
            .filter(|b| !b.entries.is_empty())
            .collect();
        self.primary.clear();
        for s in &mut self.secondary {
            s.clear();
        }
        for (slot, b) in buckets.iter().enumerate() {
            self.primary.insert(b.key.clone(), slot as u32);
            for (pos, v) in b.key.iter().enumerate() {
                self.secondary[pos]
                    .entry(v.clone())
                    .or_default()
                    .push(slot as u32);
            }
        }
        self.buckets = buckets;
        self.dead = 0;
    }

    /// Visit every bucket matching the (possibly partial) bound values —
    /// one `Option<Value>` per spec position. Fully bound probes hit the
    /// primary; partially bound probes walk the smallest secondary list
    /// among the bound positions; a probe binding nothing (disconnected
    /// cross-product component) scans every live bucket.
    pub fn for_each_match(
        &self,
        bound: &[Option<Value>],
        f: &mut dyn FnMut(&[Value], &[IndexEntry]),
    ) {
        debug_assert_eq!(bound.len(), self.spec.len());
        if bound.iter().all(Option::is_some) {
            let key: Vec<Value> = bound.iter().map(|v| v.clone().unwrap()).collect();
            if let Some(&slot) = self.primary.get(&key) {
                let b = &self.buckets[slot as usize];
                if !b.entries.is_empty() {
                    f(&b.key, &b.entries);
                }
            }
            return;
        }
        // Narrow through the bound position with the fewest candidates.
        let mut best: Option<&[u32]> = None;
        let mut any_bound = false;
        for (pos, v) in bound.iter().enumerate() {
            let Some(v) = v else {
                continue;
            };
            any_bound = true;
            let slots = self.secondary[pos].get(v).map(Vec::as_slice).unwrap_or(&[]);
            if best.is_none_or(|b| slots.len() < b.len()) {
                best = Some(slots);
            }
        }
        if any_bound {
            for &slot in best.unwrap_or(&[]) {
                let b = &self.buckets[slot as usize];
                if b.entries.is_empty() {
                    continue; // stale secondary link to an emptied bucket
                }
                let matches = bound
                    .iter()
                    .zip(&b.key)
                    .all(|(want, have)| want.as_ref().is_none_or(|w| w == have));
                if matches {
                    f(&b.key, &b.entries);
                }
            }
            return;
        }
        for b in &self.buckets {
            if !b.entries.is_empty() {
                f(&b.key, &b.entries);
            }
        }
    }

    /// Visit every annotation handle (shared-ownership-aware accounting).
    pub fn for_each_annot(&self, f: &mut dyn FnMut(&Arc<BitVec>)) {
        for b in &self.buckets {
            for e in &b.entries {
                f(&e.annot);
            }
        }
    }

    /// Number of stored annotated tuples (the budgeted quantity).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True iff the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Heap footprint, tracked incrementally (see
    /// [`super::JoinSideIndex::heap_size`] for the annotation-content
    /// accounting rules, which are identical here).
    pub fn heap_size(&self) -> usize {
        let secondary: usize = self
            .secondary
            .iter()
            .map(|s| s.capacity() * (std::mem::size_of::<Value>() + 8) + s.len() * 4)
            .sum();
        self.heap_bytes
            + self.primary.capacity() * (std::mem::size_of::<Vec<Value>>() + 8)
            + self.buckets.capacity() * std::mem::size_of::<Bucket>()
            + secondary
            + std::mem::size_of::<NarySideIndex>()
    }

    /// Serialize the primary contents (annotations by content; the
    /// secondaries are derived and rebuilt on decode).
    pub fn encode_state(&self, buf: &mut bytes::BytesMut) {
        codec::encode_u64(buf, self.primary.len() as u64);
        for (key, &slot) in &self.primary {
            let bucket = &self.buckets[slot as usize];
            codec::encode_row(buf, &Row::new(key.clone()));
            codec::encode_u64(buf, bucket.entries.len() as u64);
            for e in &bucket.entries {
                codec::encode_row(buf, &e.row);
                codec::encode_bitvec(buf, &e.annot);
                codec::encode_i64(buf, e.mult);
            }
        }
    }

    /// Restore an index written by [`NarySideIndex::encode_state`]. The
    /// spec is operator metadata (derived from the plan), so it travels
    /// beside the codec rather than inside it.
    pub fn decode_state(
        buf: &mut bytes::Bytes,
        pool: &mut AnnotPool,
        spec: ClassSpec,
    ) -> crate::Result<NarySideIndex> {
        let mut idx = NarySideIndex::new(spec);
        let n_keys = codec::decode_u64(buf)?;
        for _ in 0..n_keys {
            let key = codec::decode_row(buf)?.values().to_vec();
            let len = codec::decode_u64(buf)?;
            idx.heap_bytes += key_heap(&key);
            let mut entries = Vec::with_capacity(len as usize);
            for _ in 0..len {
                let row = codec::decode_row(buf)?;
                let e = IndexEntry {
                    row,
                    annot: crate::state_codec::decode_annotation(buf, pool)?,
                    mult: codec::decode_i64(buf)?,
                };
                idx.heap_bytes += entry_heap(&e);
                idx.entries += 1;
                entries.push(e);
            }
            let slot = idx.buckets.len() as u32;
            for (pos, v) in key.iter().enumerate() {
                idx.secondary[pos].entry(v.clone()).or_default().push(slot);
            }
            idx.buckets.push(Bucket {
                key: key.clone(),
                entries,
            });
            idx.primary.insert(key, slot);
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaEntry;
    use imp_storage::row;

    fn batch(pool: &mut AnnotPool, items: &[(Row, usize, i64)]) -> DeltaBatch {
        items
            .iter()
            .map(|(r, bit, m)| DeltaEntry {
                row: r.clone(),
                annot: pool.singleton(*bit),
                mult: *m,
            })
            .collect()
    }

    /// Spec: class 0 on column 0, class 2 on column 1.
    fn spec() -> ClassSpec {
        vec![(0, vec![0]), (2, vec![1])]
    }

    #[test]
    fn partial_probes_use_secondaries() {
        let mut p = AnnotPool::new(8);
        let side = batch(
            &mut p,
            &[
                (row![1, 10, 7], 0, 1),
                (row![1, 11, 8], 1, 1),
                (row![2, 10, 9], 2, 1),
            ],
        );
        let idx = NarySideIndex::build(spec(), &side, &p);
        assert_eq!(idx.len(), 3);
        // Bind only class 0 = 1: two buckets.
        let mut seen = Vec::new();
        idx.for_each_match(&[Some(Value::Int(1)), None], &mut |key, entries| {
            seen.push((key.to_vec(), entries.len()));
        });
        assert_eq!(seen.len(), 2);
        // Bind only class 2 = 10: two buckets across class-0 values.
        let mut n = 0;
        idx.for_each_match(&[None, Some(Value::Int(10))], &mut |_, e| n += e.len());
        assert_eq!(n, 2);
        // Fully bound: exactly one bucket.
        let mut n = 0;
        idx.for_each_match(&[Some(Value::Int(2)), Some(Value::Int(10))], &mut |_, e| {
            n += e.len()
        });
        assert_eq!(n, 1);
        // Unbound: full scan.
        let mut n = 0;
        idx.for_each_match(&[None, None], &mut |_, e| n += e.len());
        assert_eq!(n, 3);
    }

    #[test]
    fn cancellation_tombstones_then_reinserts() {
        let mut p = AnnotPool::new(8);
        let side = batch(&mut p, &[(row![1, 10, 7], 0, 1), (row![2, 20, 8], 1, 1)]);
        let mut idx = NarySideIndex::build(spec(), &side, &p);
        idx.apply_negated(&batch(&mut p, &[(row![1, 10, 7], 0, 1)]), &p);
        assert_eq!(idx.len(), 1);
        let mut n = 0;
        idx.for_each_match(&[Some(Value::Int(1)), None], &mut |_, e| n += e.len());
        assert_eq!(n, 0, "emptied bucket must be skipped via stale link");
        // Re-insert lands in a fresh slot and is visible again.
        idx.apply(&batch(&mut p, &[(row![1, 10, 7], 0, 1)]), &p);
        let mut n = 0;
        idx.for_each_match(&[Some(Value::Int(1)), None], &mut |_, e| n += e.len());
        assert_eq!(n, 1);
    }

    #[test]
    fn self_equality_and_nulls_excluded() {
        let mut p = AnnotPool::new(8);
        // Spec demanding columns 0 and 1 agree on class 0.
        let spec: ClassSpec = vec![(0, vec![0, 1])];
        let ok = row![5, 5, 1];
        let bad = row![5, 6, 1];
        let null = Row::new(vec![Value::Null, Value::Null, Value::Int(1)]);
        let side: DeltaBatch = vec![
            DeltaEntry {
                row: ok.clone(),
                annot: p.singleton(0),
                mult: 1,
            },
            DeltaEntry {
                row: bad,
                annot: p.singleton(1),
                mult: 1,
            },
            DeltaEntry {
                row: null,
                annot: p.singleton(2),
                mult: 1,
            },
        ]
        .into();
        let idx = NarySideIndex::build(spec, &side, &p);
        assert_eq!(idx.len(), 1);
        let mut n = 0;
        idx.for_each_match(&[Some(Value::Int(5))], &mut |_, e| n += e.len());
        assert_eq!(n, 1);
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut p = AnnotPool::new(64);
        let mut idx = NarySideIndex::new(spec());
        for i in 0..40i64 {
            idx.apply(&batch(&mut p, &[(row![i, i * 10, 0], 0, 1)]), &p);
        }
        // Cancel most buckets to trigger compaction.
        for i in 0..30i64 {
            idx.apply(&batch(&mut p, &[(row![i, i * 10, 0], 0, -1)]), &p);
        }
        assert_eq!(idx.len(), 10);
        for i in 30..40i64 {
            let mut n = 0;
            idx.for_each_match(&[Some(Value::Int(i)), None], &mut |_, e| n += e.len());
            assert_eq!(n, 1, "row {i} must survive compaction");
        }
    }

    #[test]
    fn codec_roundtrip_rebuilds_secondaries() {
        let mut p = AnnotPool::new(8);
        let side = batch(
            &mut p,
            &[
                (row![1, 10, 7], 0, 2),
                (row![1, 11, 8], 1, 1),
                (row![2, 10, 9], 2, -1),
            ],
        );
        let idx = NarySideIndex::build(spec(), &side, &p);
        let mut buf = bytes::BytesMut::new();
        idx.encode_state(&mut buf);
        let mut p2 = AnnotPool::new(8);
        let mut bytes = buf.freeze();
        let restored = NarySideIndex::decode_state(&mut bytes, &mut p2, spec()).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(restored.len(), idx.len());
        let mut n = 0;
        restored.for_each_match(&[None, Some(Value::Int(10))], &mut |_, e| n += e.len());
        assert_eq!(n, 2);
    }
}
