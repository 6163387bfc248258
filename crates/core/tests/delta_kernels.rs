//! Property tests for the delta kernels — normalize, annotate, and the
//! maintainer's routed gather — each checked against a small naive
//! specification written here, on batches where duplicate rows, mixed
//! signs, and exact zero-multiplicity cancellations are common.

use imp_core::delta::normalize_delta;
use imp_core::maintain::SketchMaintainer;
use imp_core::ops::OpConfig;
use imp_core::sched::{RoutedEntry, TableDelta};
use imp_core::state_codec::save_state;
use imp_engine::Database;
use imp_sketch::{annotate_delta, annotation_for_row, PartitionSet, RangePartition};
use imp_storage::{
    row, AnnotId, AnnotPool, DataType, DeltaBatch, DeltaLog, DeltaOp, Field, FxHashMap, Row,
    RowInterner, Schema, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const POOL_WIDTH: usize = 8;

/// Random batch over a tiny row/annotation space so duplicate
/// `(row, annot)` keys — and exact cancellations — are common.
fn arb_batch() -> impl Strategy<Value = DeltaBatch> {
    prop::collection::vec((0i64..4, 0i64..3, 0usize..4, -2i64..3), 0..96).prop_map(|entries| {
        let mut pool = AnnotPool::new(POOL_WIDTH);
        let mut batch = DeltaBatch::with_capacity(entries.len());
        for (k, v, frag, mult) in entries {
            batch.push_entry(row![k, v], pool.singleton(frag), mult);
        }
        batch
    })
}

/// Specification of normalize: sum multiplicities per `(row, annot)`,
/// drop the zeros, list in key order.
fn normalize_spec(batch: &DeltaBatch) -> DeltaBatch {
    let mut sums: BTreeMap<(Row, AnnotId), i64> = BTreeMap::new();
    for d in batch.iter() {
        *sums.entry((d.row.clone(), d.annot)).or_insert(0) += d.mult;
    }
    let mut out = DeltaBatch::new();
    for ((row, annot), mult) in sums {
        if mult != 0 {
            out.push_entry(row, annot, mult);
        }
    }
    out
}

/// `t(k, g, v)` partitioned on `g`; `u(ug, w)` unpartitioned.
fn pset() -> Arc<PartitionSet> {
    Arc::new(
        PartitionSet::new(vec![RangePartition::new(
            "t",
            "g",
            1,
            vec![Value::Int(2), Value::Int(4)],
        )
        .unwrap()])
        .unwrap(),
    )
}

fn seed_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "u",
        Schema::new(vec![
            Field::new("ug", DataType::Int),
            Field::new("w", DataType::Int),
        ]),
    )
    .unwrap();
    for k in 0..6i64 {
        db.table_mut("t")
            .unwrap()
            .bulk_load([row![k, k % 6, k]])
            .unwrap();
        db.table_mut("u")
            .unwrap()
            .bulk_load([row![k % 6, k * 10]])
            .unwrap();
    }
    db
}

/// Aggregation (hash group maintenance), a join (normalize of the
/// three-term output), and MIN (ordered accumulator state).
const QUERIES: [&str; 3] = [
    "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 4",
    "SELECT v, w FROM t JOIN u ON (g = ug)",
    "SELECT g, MIN(v) AS m FROM t GROUP BY g",
];

/// The delta-log records of `table` after `since`, split into two routed
/// batches the way the scheduler's router would ship them.
fn route(db: &Database, table: &str, since: u64) -> Vec<Arc<TableDelta>> {
    let records = db.delta_since(table, since).unwrap();
    let (a, b) = records.split_at(records.len() / 2);
    [a, b]
        .into_iter()
        .filter(|part| !part.is_empty())
        .map(|part| {
            Arc::new(TableDelta {
                table: table.to_string(),
                from_version: since,
                to_version: part.iter().map(|r| r.version).max().unwrap(),
                entries: part
                    .iter()
                    .map(|r| RoutedEntry {
                        row: r.row.clone(),
                        mult: r.op.sign() * r.mult as i64,
                        version: r.version,
                    })
                    .collect(),
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `normalize_delta` is the `BTreeMap` fold: merged per
    /// `(row, annot)`, zero multiplicities dropped, sorted by key.
    #[test]
    fn normalize_matches_btreemap_fold(batch in arb_batch()) {
        let expected = normalize_spec(&batch);
        prop_assert_eq!(normalize_delta(batch), expected);
    }

    /// `annotate_delta` keeps every record in order, interns its row,
    /// signs its multiplicity, and tags it with the pooled id of
    /// `annotation_for_row` — on a partitioned and an unpartitioned
    /// table alike.
    #[test]
    fn annotate_gives_each_record_its_pooled_annotation(
        records in prop::collection::vec((0i64..6, 0i64..6, any::<bool>(), 1u64..3), 0..80),
        partitioned in any::<bool>(),
    ) {
        let ps = pset();
        let table = if partitioned { "t" } else { "other" };
        let mut log = DeltaLog::new();
        for (i, &(k, g, delete, mult)) in records.iter().enumerate() {
            let op = if delete { DeltaOp::Delete } else { DeltaOp::Insert };
            log.append(i as u64 + 1, op, row![k, g, 0], mult);
        }
        let mut pool = AnnotPool::new(ps.total_fragments());
        let mut rows = RowInterner::new();
        let out = annotate_delta(&mut pool, &mut rows, &ps, table, log.all());

        prop_assert_eq!(out.len(), log.all().len());
        for (d, rec) in out.iter().zip(log.all()) {
            prop_assert_eq!(&d.row, &rec.row);
            prop_assert_eq!(d.mult, rec.op.sign() * rec.mult as i64);
            let expected = pool.intern(annotation_for_row(&ps, table, &rec.row));
            prop_assert_eq!(d.annot, expected);
        }
        // Equal tuples share one payload.
        for (i, a) in out.iter().enumerate() {
            for b in &out[i + 1..] {
                prop_assert_eq!(a.row == b.row, a.row.ptr_id() == b.row.ptr_id());
            }
        }
    }

    /// Maintaining from routed batches (which overlap history the sketch
    /// already consumed) and maintaining from the delta logs give
    /// byte-identical sketches, operator state, and versions.
    #[test]
    fn maintain_from_matches_maintain(
        // (table t?, key, delete?, value) — chunked into multi-statement
        // rounds so inserts and deletes of one key cancel within a delta.
        ops in prop::collection::vec((any::<bool>(), 0i64..6, any::<bool>(), 0i64..9), 1..40),
        query in 0usize..QUERIES.len(),
    ) {
        let mut db = seed_db();
        let plan = db.plan_sql(QUERIES[query]).unwrap();
        let (mut fetched, _) =
            SketchMaintainer::capture(&plan, &db, pset(), OpConfig::default(), true).unwrap();
        let (mut routed, _) =
            SketchMaintainer::capture(&plan, &db, pset(), OpConfig::default(), true).unwrap();
        let tables = routed.tables().to_vec();
        // Route from one round behind, so every batch after the first
        // repeats entries the routed maintainer has already consumed.
        let mut lagging = routed.version();

        for (round, chunk) in ops.chunks(4).enumerate() {
            for &(to_t, key, delete, val) in chunk {
                let sql = match (to_t, delete) {
                    (true, true) => format!("DELETE FROM t WHERE k = {key}"),
                    (true, false) => format!("INSERT INTO t VALUES ({key}, {}, {val})", val % 6),
                    (false, true) => format!("DELETE FROM u WHERE ug = {key}"),
                    (false, false) => format!("INSERT INTO u VALUES ({key}, {val})"),
                };
                db.execute_sql(&sql).unwrap();
            }
            let batches: FxHashMap<String, Vec<Arc<TableDelta>>> = tables
                .iter()
                .map(|t| (t.clone(), route(&db, t, lagging)))
                .collect();
            lagging = routed.version();

            fetched.maintain(&db).unwrap();
            routed.maintain_from(&db, &batches).unwrap();
            prop_assert_eq!(fetched.sketch(), routed.sketch(), "sketch, round {}", round);
            prop_assert_eq!(fetched.version(), routed.version(), "version, round {}", round);
            prop_assert_eq!(
                save_state(&fetched), save_state(&routed), "state bytes, round {}", round
            );
        }
    }
}
