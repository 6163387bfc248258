//! The `annotate` operator (Def. 4.4) applied to deltas.
//!
//! `annotate(R, Φ)` tags each tuple with the singleton set containing the
//! range its partition-attribute value belongs to. Annotated deltas
//! `Δ𝒟 = annotate(ΔR, Φ)` are the input of the incremental maintenance
//! procedure (Def. 4.5).
//!
//! Annotations are issued as pooled [`AnnotId`]s: a base table's delta
//! rows carry singleton annotations drawn from the pool's per-fragment
//! cache, so annotating a delta allocates no bitvectors at all after each
//! fragment's first sighting. Row payloads go through a [`RowInterner`]
//! so repeated updates of the same tuple share one allocation.

use crate::partition::PartitionSet;
use imp_storage::{AnnotId, AnnotPool, BitVec, DeltaBatch, DeltaRecord, Row, RowInterner};

/// Annotation bits for one base-table row (materialised form; the delta
/// pipeline uses the pooled [`annotation_id_for_row`] instead).
pub fn annotation_for_row(pset: &PartitionSet, table: &str, row: &Row) -> BitVec {
    let mut bits = BitVec::new(pset.total_fragments());
    if let Some((idx, offset, p)) = pset.for_table(table) {
        debug_assert!(idx < pset.len());
        let frag = p.fragment_of(&row[p.column]);
        bits.set(offset + frag, true);
    }
    bits
}

/// Pooled annotation id for one base-table row: a cached singleton for
/// partitioned tables, the pool's empty id otherwise.
pub fn annotation_id_for_row(
    pool: &mut AnnotPool,
    pset: &PartitionSet,
    table: &str,
    row: &Row,
) -> AnnotId {
    match pset.for_table(table) {
        Some((_, offset, p)) => pool.singleton(offset + p.fragment_of(&row[p.column])),
        None => pool.empty_id(),
    }
}

/// Annotate a table's delta records (`Δℛ = annotate(ΔR, Φ)`): each
/// record becomes one entry carrying its interned row, its pooled
/// [`annotation_id_for_row`], and its signed multiplicity.
pub fn annotate_delta(
    pool: &mut AnnotPool,
    rows: &mut RowInterner,
    pset: &PartitionSet,
    table: &str,
    records: &[DeltaRecord],
) -> DeltaBatch {
    records
        .iter()
        .map(|r| imp_storage::DeltaEntry {
            annot: annotation_id_for_row(pool, pset, table, &r.row),
            row: rows.intern(r.row.clone()),
            mult: r.op.sign() * r.mult as i64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RangePartition;
    use imp_storage::{row, DeltaOp, Value};

    fn pset() -> PartitionSet {
        PartitionSet::new(vec![RangePartition::new(
            "sales",
            "price",
            2,
            vec![Value::Int(601), Value::Int(1001), Value::Int(1501)],
        )
        .unwrap()])
        .unwrap()
    }

    #[test]
    fn example_4_2() {
        // Δ+s8 = (8, HP, 1299, 1) annotated with {ρ3} (price 1299 ∈ ρ3).
        let ps = pset();
        let mut pool = AnnotPool::new(ps.total_fragments());
        let mut rows = RowInterner::new();
        let mut rec = imp_storage::DeltaLog::new();
        rec.append(2, DeltaOp::Insert, row![8, "HP", 1299, 1], 1);
        let ann = annotate_delta(&mut pool, &mut rows, &ps, "sales", rec.all());
        assert_eq!(ann.len(), 1);
        assert_eq!(ann[0].mult, 1);
        assert_eq!(
            pool.get(ann[0].annot).iter_ones().collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    fn deletions_get_negative_multiplicity() {
        let ps = pset();
        let mut pool = AnnotPool::new(ps.total_fragments());
        let mut rows = RowInterner::new();
        let mut rec = imp_storage::DeltaLog::new();
        rec.append(2, DeltaOp::Delete, row![3, "Apple", 1199, 1], 2);
        let ann = annotate_delta(&mut pool, &mut rows, &ps, "sales", rec.all());
        assert_eq!(ann[0].mult, -2);
    }

    #[test]
    fn unpartitioned_table_gets_empty_annotation() {
        let ps = pset();
        let r = row![1, 2];
        let bits = annotation_for_row(&ps, "other", &r);
        assert!(bits.is_zero());
        let mut pool = AnnotPool::new(ps.total_fragments());
        assert_eq!(
            annotation_id_for_row(&mut pool, &ps, "other", &r),
            pool.empty_id()
        );
    }

    #[test]
    fn repeated_deltas_share_annotations_and_rows() {
        let ps = pset();
        let mut pool = AnnotPool::new(ps.total_fragments());
        let mut rows = RowInterner::new();
        let mut rec = imp_storage::DeltaLog::new();
        rec.append(1, DeltaOp::Insert, row![8, "HP", 1299, 1], 1);
        rec.append(2, DeltaOp::Delete, row![8, "HP", 1299, 1], 1);
        rec.append(3, DeltaOp::Insert, row![9, "HP", 1300, 1], 1);
        let ann = annotate_delta(&mut pool, &mut rows, &ps, "sales", rec.all());
        // Same fragment ⇒ same pooled id; same tuple ⇒ same allocation.
        assert_eq!(ann[0].annot, ann[1].annot);
        assert_eq!(ann[0].annot, ann[2].annot);
        assert_eq!(ann[0].row.ptr_id(), ann[1].row.ptr_id());
        assert_ne!(ann[0].row.ptr_id(), ann[2].row.ptr_id());
        // One singleton interned, the rest cache hits.
        assert_eq!(pool.stats().interned, 1);
    }
}
