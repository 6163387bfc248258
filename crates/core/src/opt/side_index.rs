//! Delta-maintained hash indexes over the join sides (`Q ⋈ Δ` caching).
//!
//! The paper outsources the `ΔQ₁ ⋈ Q₂ᴺᴱᵂ` terms of join maintenance to the
//! backend database (§1, §7): evaluating the non-delta side is a round
//! trip, paid on *every* batch. But the operator already receives exactly
//! the delta that separates the side's old state from its new one —
//! `Q₂ᴺᴱᵂ = Q₂ᴼᴸᴰ + ΔQ₂` — so the side can be materialised once and then
//! maintained in place, the classic IVM trick (cf. *Incremental
//! Maintenance for Leapfrog Triejoin*, Veldhuizen 2013). A
//! [`JoinSideIndex`] is that materialisation: a hash index
//! `join key → [(row, annotation, multiplicity)]` built from one backend
//! round trip on first use and absorbed deltas thereafter, turning
//! steady-state join maintenance from O(|side|) per batch into O(|Δ|)
//! amortized with zero round trips.
//!
//! Annotations are stored as `Arc<BitVec>` *content* handles from
//! [`AnnotPool::share`], never as [`imp_storage::AnnotId`]s: the index is
//! persistent
//! operator state, and pool ids are only live within one maintenance run
//! (the pool may be flushed between runs — see the `imp_core::delta`
//! invariants). Probing re-enters the pool via
//! [`AnnotPool::intern_arc`], an O(1) probe for already-known contents.
//!
//! The index is memory-bounded by `OpConfig::join_index_budget` (entries
//! per side); the join operator falls back to per-batch re-evaluation
//! when a side outgrows the budget, mirroring the bounded MIN/MAX state.

use crate::delta::DeltaBatch;
use imp_storage::{codec, AnnotPool, BitVec, FxHashMap, Row, Value};
use std::sync::Arc;

/// One annotated tuple of a materialised join side.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// The side's tuple (`Arc`-shared; clone is O(1)).
    pub row: Row,
    /// Annotation content handle (pool-independent).
    pub annot: Arc<BitVec>,
    /// Bag multiplicity of `(row, annot)` in the side's result.
    pub mult: i64,
}

/// A persistent, delta-maintained hash index over one join side.
#[derive(Debug, Clone, Default)]
pub struct JoinSideIndex {
    /// Join-key values → entries, merged by `(row, annotation content)`.
    map: FxHashMap<Vec<Value>, Vec<IndexEntry>>,
    entries: usize,
    heap_bytes: usize,
}

/// Join-key values of a row; `None` when any key attribute is NULL (such a
/// row joins nothing). An empty key set (cross product) maps every row to
/// the same bucket.
pub(crate) fn key_of(row: &Row, keys: &[usize]) -> Option<Vec<Value>> {
    let mut k = Vec::with_capacity(keys.len());
    for &i in keys {
        let v = row[i].clone();
        if v.is_null() {
            return None;
        }
        k.push(v);
    }
    Some(k)
}

pub(crate) fn key_heap(key: &[Value]) -> usize {
    key.iter().map(Value::heap_size).sum::<usize>() + std::mem::size_of_val(key)
}

impl JoinSideIndex {
    /// Build the index from a full evaluation of the side (one backend
    /// round trip, already at the state the index should represent).
    pub fn build(side: &DeltaBatch, keys: &[usize], pool: &AnnotPool) -> JoinSideIndex {
        let mut idx = JoinSideIndex::default();
        idx.apply(side, keys, pool);
        idx
    }

    /// Absorb one delta of the side: `Q₂ᴺᴱᵂ = Q₂ᴼᴸᴰ + ΔQ₂`. Entries merge
    /// by `(row, annotation content)`; multiplicities that cancel to zero
    /// are removed.
    pub fn apply(&mut self, delta: &DeltaBatch, keys: &[usize], pool: &AnnotPool) {
        for d in delta {
            let Some(key) = key_of(&d.row, keys) else {
                continue;
            };
            let annot = pool.share(d.annot);
            match self.map.get_mut(&key) {
                Some(bucket) => {
                    let pos = bucket
                        .iter()
                        .position(|e| annot_eq(&e.annot, &annot) && e.row == d.row);
                    match pos {
                        Some(i) => {
                            bucket[i].mult += d.mult;
                            if bucket[i].mult == 0 {
                                self.heap_bytes -= entry_heap(&bucket[i]);
                                self.entries -= 1;
                                bucket.swap_remove(i);
                                if bucket.is_empty() {
                                    self.heap_bytes -= key_heap(&key);
                                    self.map.remove(&key);
                                }
                            }
                        }
                        None => {
                            let e = IndexEntry {
                                row: d.row.clone(),
                                annot,
                                mult: d.mult,
                            };
                            self.heap_bytes += entry_heap(&e);
                            self.entries += 1;
                            bucket.push(e);
                        }
                    }
                }
                None => {
                    let e = IndexEntry {
                        row: d.row.clone(),
                        annot,
                        mult: d.mult,
                    };
                    self.heap_bytes += key_heap(&key) + entry_heap(&e);
                    self.entries += 1;
                    self.map.insert(key, vec![e]);
                }
            }
        }
    }

    /// Entries matching a join key.
    pub fn get(&self, key: &[Value]) -> Option<&[IndexEntry]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// Iterate the distinct join keys (bloom filters are rebuilt from
    /// these without a backend round trip).
    pub fn keys(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.map.keys()
    }

    /// Visit every annotation handle held by the index (the
    /// shared-ownership-aware accounting walk).
    pub fn for_each_annot(&self, f: &mut dyn FnMut(&Arc<BitVec>)) {
        for bucket in self.map.values() {
            for e in bucket {
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

    /// Heap footprint of the index (Fig. 17), tracked incrementally so
    /// accounting stays O(|Δ|) per batch. Annotation *contents* are
    /// counted like the top-k state counts them: the `Arc<BitVec>`
    /// handles come from the maintainer's pool, whose own `heap_size`
    /// accounts for the bitvectors — only per-entry handle overhead is
    /// ours. (Known accounting gap shared with the top-k state: after a
    /// between-runs pool flush, contents kept alive only by these
    /// handles are counted by neither side until re-interned.)
    pub fn heap_size(&self) -> usize {
        self.heap_bytes
            + self.map.capacity() * (std::mem::size_of::<Vec<Value>>() + 8)
            + std::mem::size_of::<JoinSideIndex>()
    }

    /// Serialize the index (annotations by content, so the encoding is
    /// independent of pool id assignment).
    pub fn encode_state(&self, buf: &mut bytes::BytesMut) {
        codec::encode_u64(buf, self.map.len() as u64);
        for (key, bucket) in &self.map {
            codec::encode_row(buf, &Row::new(key.clone()));
            codec::encode_u64(buf, bucket.len() as u64);
            for e in bucket {
                codec::encode_row(buf, &e.row);
                codec::encode_bitvec(buf, &e.annot);
                codec::encode_i64(buf, e.mult);
            }
        }
    }

    /// Restore an index written by [`JoinSideIndex::encode_state`],
    /// re-interning every annotation into `pool` so restored state shares
    /// allocations (and ids) with the live pipeline.
    pub fn decode_state(
        buf: &mut bytes::Bytes,
        pool: &mut AnnotPool,
    ) -> crate::Result<JoinSideIndex> {
        let mut idx = JoinSideIndex::default();
        let n_keys = codec::decode_u64(buf)?;
        for _ in 0..n_keys {
            let key = codec::decode_row(buf)?.values().to_vec();
            let len = codec::decode_u64(buf)?;
            let mut bucket = Vec::with_capacity(len as usize);
            idx.heap_bytes += key_heap(&key);
            for _ in 0..len {
                let row = codec::decode_row(buf)?;
                let e = IndexEntry {
                    row,
                    annot: crate::state_codec::decode_annotation(buf, pool)?,
                    mult: codec::decode_i64(buf)?,
                };
                idx.heap_bytes += entry_heap(&e);
                idx.entries += 1;
                bucket.push(e);
            }
            idx.map.insert(key, bucket);
        }
        Ok(idx)
    }
}

pub(crate) fn entry_heap(e: &IndexEntry) -> usize {
    e.row.heap_size() + std::mem::size_of::<IndexEntry>()
}

/// Content equality with an `Arc` pointer fast path (entries built from
/// the same pool share allocations).
pub(crate) fn annot_eq(a: &Arc<BitVec>, b: &Arc<BitVec>) -> bool {
    Arc::ptr_eq(a, b) || a == b
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

    #[test]
    fn build_groups_by_key_and_merges() {
        let mut p = AnnotPool::new(8);
        let side = batch(
            &mut p,
            &[
                (row![1, 10], 0, 1),
                (row![1, 11], 0, 1),
                (row![2, 20], 1, 3),
                (row![1, 10], 0, 1), // duplicate of the first entry
            ],
        );
        let idx = JoinSideIndex::build(&side, &[0], &p);
        assert_eq!(idx.len(), 3);
        let bucket = idx.get(&[Value::Int(1)]).unwrap();
        assert_eq!(bucket.len(), 2);
        let dup = bucket.iter().find(|e| e.row == row![1, 10]).unwrap();
        assert_eq!(dup.mult, 2);
        assert!(idx.get(&[Value::Int(3)]).is_none());
    }

    #[test]
    fn apply_deletes_cancel_entries() {
        let mut p = AnnotPool::new(8);
        let side = batch(&mut p, &[(row![1, 10], 0, 1), (row![2, 20], 1, 1)]);
        let mut idx = JoinSideIndex::build(&side, &[0], &p);
        let before = idx.heap_size();
        let delta = batch(&mut p, &[(row![1, 10], 0, -1)]);
        idx.apply(&delta, &[0], &p);
        assert_eq!(idx.len(), 1);
        assert!(idx.get(&[Value::Int(1)]).is_none());
        assert!(idx.heap_size() < before);
        // Re-insert brings it back.
        let delta = batch(&mut p, &[(row![1, 10], 0, 1)]);
        idx.apply(&delta, &[0], &p);
        assert_eq!(idx.get(&[Value::Int(1)]).unwrap().len(), 1);
    }

    #[test]
    fn null_keys_are_skipped() {
        let mut p = AnnotPool::new(8);
        let side: DeltaBatch = vec![DeltaEntry {
            row: Row::new(vec![Value::Null, Value::Int(1)]),
            annot: p.singleton(0),
            mult: 1,
        }]
        .into();
        let idx = JoinSideIndex::build(&side, &[0], &p);
        assert!(idx.is_empty());
    }

    #[test]
    fn codec_roundtrip_reinterns() {
        let mut p = AnnotPool::new(8);
        let side = batch(
            &mut p,
            &[
                (row![1, 10], 0, 1),
                (row![1, 11], 2, 2),
                (row![5, 50], 1, 1),
            ],
        );
        let idx = JoinSideIndex::build(&side, &[0], &p);
        let mut buf = bytes::BytesMut::new();
        idx.encode_state(&mut buf);
        // Restore into a *fresh* pool (mirrors post-eviction restore).
        let mut p2 = AnnotPool::new(8);
        let mut bytes = buf.freeze();
        let restored = JoinSideIndex::decode_state(&mut bytes, &mut p2).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(restored.len(), idx.len());
        let a = idx.get(&[Value::Int(1)]).unwrap();
        let b = restored.get(&[Value::Int(1)]).unwrap();
        assert_eq!(a.len(), b.len());
        for e in a {
            assert!(b
                .iter()
                .any(|r| r.row == e.row && *r.annot == *e.annot && r.mult == e.mult));
        }
    }
}
