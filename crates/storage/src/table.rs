//! Base tables: chunked columnar storage plus the per-table delta log.

use crate::chunk::{ChunkBuilder, DataChunk};
use crate::delta::{DeltaLog, DeltaOp};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// An inclusive value range with optional (unbounded) endpoints, as used
/// for zone-map pruning.
pub type ValueRange = (Option<Value>, Option<Value>);

/// Default number of rows per chunk. Small enough that zone-map pruning is
/// meaningful on laptop-scale tables, large enough to amortize per-chunk
/// overhead.
pub const DEFAULT_CHUNK_CAPACITY: usize = 4096;

/// A stored relation.
///
/// Rows live in sealed [`DataChunk`]s plus one open tail builder. Deletes
/// are tombstones inside chunks. Every mutation is mirrored into the
/// [`DeltaLog`] tagged with the snapshot version supplied by the engine.
///
/// Reads and deletes share the chunks' zone maps: [`Table::scan`] skips
/// chunks whose zone map misses every prune range, and
/// [`Table::delete_where`] picks its victims column-first — zone-map
/// pruning, then a typed range kernel over one column — so only candidate
/// rows are ever built.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    chunks: Vec<DataChunk>,
    tail: ChunkBuilder,
    tail_rows: Vec<Row>,
    tail_deleted: Vec<bool>,
    chunk_capacity: usize,
    delta_log: DeltaLog,
    live_rows: usize,
}

impl Table {
    /// Empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table::with_chunk_capacity(name, schema, DEFAULT_CHUNK_CAPACITY)
    }

    /// Empty table with an explicit chunk size (used by tests and by the
    /// partition-granularity experiments).
    pub fn with_chunk_capacity(
        name: impl Into<String>,
        schema: Schema,
        chunk_capacity: usize,
    ) -> Table {
        assert!(chunk_capacity > 0, "chunk capacity must be positive");
        Table {
            name: name.into(),
            tail: ChunkBuilder::new(&schema),
            tail_rows: Vec::new(),
            tail_deleted: Vec::new(),
            schema,
            chunks: Vec::new(),
            chunk_capacity,
            delta_log: DeltaLog::new(),
            live_rows: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of visible (non-deleted) rows.
    pub fn row_count(&self) -> usize {
        self.live_rows
    }

    /// Sealed chunks (excludes the open tail).
    pub fn chunks(&self) -> &[DataChunk] {
        &self.chunks
    }

    /// The change log.
    pub fn delta_log(&self) -> &DeltaLog {
        &self.delta_log
    }

    /// Mutable access to the change log (engine-internal truncation).
    pub fn delta_log_mut(&mut self) -> &mut DeltaLog {
        &mut self.delta_log
    }

    /// Insert one row at snapshot `version`.
    pub fn insert(&mut self, row: Row, version: u64) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(crate::StorageError::ArityMismatch {
                expected: self.schema.arity(),
                found: row.arity(),
            });
        }
        self.tail.push(&row)?;
        self.tail_rows.push(row.clone());
        self.tail_deleted.push(false);
        self.live_rows += 1;
        self.delta_log.append(version, DeltaOp::Insert, row, 1);
        if self.tail.len() >= self.chunk_capacity {
            self.seal_tail();
        }
        Ok(())
    }

    /// Bulk load rows without logging deltas (initial load; the sketch
    /// lifecycle starts *after* the load, so the log stays empty).
    pub fn bulk_load(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        for row in rows {
            if row.arity() != self.schema.arity() {
                return Err(crate::StorageError::ArityMismatch {
                    expected: self.schema.arity(),
                    found: row.arity(),
                });
            }
            self.tail.push(&row)?;
            self.tail_rows.push(row);
            self.tail_deleted.push(false);
            self.live_rows += 1;
            if self.tail.len() >= self.chunk_capacity {
                self.seal_tail();
            }
        }
        Ok(())
    }

    fn seal_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let mut chunk = self.tail.finish();
        for (i, deleted) in self.tail_deleted.iter().enumerate() {
            if *deleted {
                chunk.delete(i);
            }
        }
        self.chunks.push(chunk);
        self.tail_rows.clear();
        self.tail_deleted.clear();
    }

    /// Force-seal the open tail (done before scans that want pure
    /// chunk-at-a-time processing, e.g. after a bulk load).
    pub fn seal(&mut self) {
        self.seal_tail();
    }

    /// Delete all live rows matching `pred`, logging them at `version`.
    /// Returns the deleted rows in table order (chunk order, then tail),
    /// which is also the order of their delta-log records.
    ///
    /// With `prune = Some((column, ranges))` the victims are chosen
    /// column-first. `ranges` are inclusive `(lo, hi)` bounds (`None` =
    /// unbounded) that must over-approximate `pred`: every row `pred`
    /// accepts has a non-NULL `column` value inside at least one range.
    /// Per sealed chunk:
    ///
    /// 1. the chunk is skipped when its zone map overlaps none of the
    ///    ranges (the same test [`Table::scan`] prunes with);
    /// 2. otherwise the ranges are narrowed to the ones the zone map
    ///    overlaps and [`DataChunk::select_live_in_ranges`] runs over that
    ///    one column, returning the candidate slots;
    /// 3. only candidates are built as rows and checked against `pred`.
    ///
    /// Rows the ranges exclude are never passed to `pred`. The unsealed
    /// tail is row-based: `pred` sees every live tail row. With
    /// `prune = None`, `pred` sees every live row.
    pub fn delete_where(
        &mut self,
        version: u64,
        prune: Option<(usize, &[ValueRange])>,
        mut pred: impl FnMut(&Row) -> bool,
    ) -> Vec<Row> {
        let mut deleted = Vec::new();
        for chunk in &mut self.chunks {
            let candidates: Vec<usize> = match prune {
                Some((col, ranges)) => {
                    let narrowed: Vec<ValueRange> =
                        overlapping(chunk, col, ranges).cloned().collect();
                    if narrowed.is_empty() {
                        continue;
                    }
                    chunk.select_live_in_ranges(col, &narrowed)
                }
                None => (0..chunk.len()).filter(|&i| chunk.is_live(i)).collect(),
            };
            for idx in candidates {
                let row = chunk.row(idx);
                if pred(&row) {
                    chunk.delete(idx);
                    deleted.push(row);
                }
            }
        }
        for i in 0..self.tail_rows.len() {
            if !self.tail_deleted[i] && pred(&self.tail_rows[i]) {
                self.tail_deleted[i] = true;
                deleted.push(self.tail_rows[i].clone());
            }
        }
        for row in &deleted {
            self.delta_log
                .append(version, DeltaOp::Delete, row.clone(), 1);
        }
        self.live_rows -= deleted.len();
        deleted
    }

    /// Scan all live rows, optionally pruning chunks with a zone-map
    /// predicate on `column` restricted to `[lo, hi]` ranges. Each element
    /// of `ranges` is an inclusive `(Option<lo>, Option<hi>)` pair; a chunk
    /// survives when its zone map overlaps *any* range (matches the
    /// disjunctive `BETWEEN ... OR BETWEEN ...` rewrite of paper §1).
    ///
    /// `on_chunk_skipped` is invoked once per pruned chunk so callers can
    /// report skipping effectiveness.
    pub fn scan(
        &self,
        prune: Option<(usize, &[ValueRange])>,
        mut on_row: impl FnMut(Row),
        mut on_chunk_skipped: impl FnMut(usize),
    ) {
        for chunk in &self.chunks {
            if let Some((col, ranges)) = prune {
                if overlapping(chunk, col, ranges).next().is_none() {
                    on_chunk_skipped(chunk.live_rows());
                    continue;
                }
            }
            for (_, row) in chunk.iter_live() {
                on_row(row);
            }
        }
        for (i, row) in self.tail_rows.iter().enumerate() {
            if !self.tail_deleted[i] {
                on_row(row.clone());
            }
        }
    }

    /// Collect all live rows (convenience; prefer [`Table::scan`] in hot
    /// paths).
    pub fn rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.live_rows);
        self.scan(None, |r| out.push(r), |_| {});
        out
    }

    /// Rows that are tombstoned but still occupy chunk space.
    pub fn dead_rows(&self) -> usize {
        let chunk_dead: usize = self.chunks.iter().map(|c| c.len() - c.live_rows()).sum();
        chunk_dead + self.tail_deleted.iter().filter(|d| **d).count()
    }

    /// Rewrite the storage without tombstoned rows (VACUUM). Physical
    /// reorganization only: the delta log and snapshot versions are
    /// untouched. Returns the number of reclaimed row slots.
    pub fn compact(&mut self) -> usize {
        let dead = self.dead_rows();
        if dead == 0 {
            return 0;
        }
        let live = self.rows();
        self.chunks.clear();
        self.tail = ChunkBuilder::new(&self.schema);
        self.tail_rows.clear();
        self.tail_deleted.clear();
        self.live_rows = 0;
        self.bulk_load(live)
            .expect("re-loading rows of matching schema");
        self.seal();
        dead
    }

    /// Approximate heap footprint.
    pub fn heap_size(&self) -> usize {
        self.chunks.iter().map(DataChunk::heap_size).sum::<usize>()
            + self.tail_rows.iter().map(Row::heap_size).sum::<usize>()
            + self.delta_log.heap_size()
    }
}

/// The ranges that `chunk`'s zone map may satisfy on `column`: the one
/// zone-map test behind both [`Table::scan`] and [`Table::delete_where`].
fn overlapping<'a>(
    chunk: &'a DataChunk,
    column: usize,
    ranges: &'a [ValueRange],
) -> impl Iterator<Item = &'a ValueRange> + 'a {
    let zm = chunk.zone_map();
    ranges
        .iter()
        .filter(move |(lo, hi)| zm.may_overlap(column, lo.as_ref(), hi.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Field;
    use crate::value::DataType;

    fn sales_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("price", DataType::Int),
        ])
    }

    #[test]
    fn insert_and_scan() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..5 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.chunks().len(), 2); // 2 sealed chunks + tail of 1
        assert_eq!(t.rows().len(), 5);
        assert_eq!(t.delta_log().len(), 5);
    }

    #[test]
    fn delete_where_logs_and_tombstones() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..4 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        let deleted = t.delete_where(2, None, |r| r[1] >= Value::Int(200));
        assert_eq!(deleted.len(), 2);
        assert_eq!(t.row_count(), 2);
        let deletes: Vec<_> = t
            .delta_log()
            .since(1)
            .iter()
            .filter(|r| r.op == DeltaOp::Delete)
            .collect();
        assert_eq!(deletes.len(), 2);
    }

    #[test]
    fn zone_map_scan_prunes_chunks() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        // Chunk 0: prices 0,100 — chunk 1: 200,300 — chunk 2: 400,500.
        for i in 0..6 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        t.seal();
        let ranges = vec![(Some(Value::Int(350)), Some(Value::Int(600)))];
        let mut seen = Vec::new();
        let mut skipped = 0usize;
        t.scan(Some((1, &ranges)), |r| seen.push(r), |n| skipped += n);
        // Chunks 0 and 1 pruned, chunk 2 scanned.
        assert_eq!(skipped, 4);
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn delete_where_builds_only_in_range_candidates() {
        // 100 sealed chunks of 16 ids each, then a 5-row unsealed tail.
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 16);
        t.bulk_load((0..1605).map(|i| row![i, i % 7])).unwrap();
        assert_eq!(t.chunks().len(), 100);
        let ranges = vec![(Some(Value::Int(800)), Some(Value::Int(809)))];
        let mut seen = Vec::new();
        let deleted = t.delete_where(2, Some((0, &ranges)), |r| {
            seen.push(r[0].clone());
            r[0] >= Value::Int(800) && r[0] < Value::Int(810)
        });
        assert_eq!(deleted.len(), 10);
        assert_eq!(t.row_count(), 1595);
        // The predicate sees the window's 10 candidates and the 5 tail
        // rows: not one call per live row, and none for the 99 chunks
        // the zone maps prune or for the rest of the overlapping chunk.
        let expected: Vec<Value> = (800..810).chain(1600..1605).map(Value::Int).collect();
        assert_eq!(seen, expected);
        // Tombstoned slots are no longer candidates: only the tail is seen.
        let mut calls = 0;
        let again = t.delete_where(3, Some((0, &ranges)), |r| {
            calls += 1;
            r[0] >= Value::Int(800) && r[0] < Value::Int(810)
        });
        assert!(again.is_empty());
        assert_eq!(calls, 5);
    }

    #[test]
    fn delete_in_unsealed_tail() {
        let mut t = Table::new("s", sales_schema());
        t.insert(row![1, 10], 1).unwrap();
        t.insert(row![2, 20], 1).unwrap();
        let d = t.delete_where(2, None, |r| r[0] == Value::Int(1));
        assert_eq!(d.len(), 1);
        assert_eq!(t.rows(), vec![row![2, 20]]);
    }

    #[test]
    fn tombstones_survive_sealing() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 4);
        t.insert(row![1, 10], 1).unwrap();
        t.insert(row![2, 20], 1).unwrap();
        t.delete_where(2, None, |r| r[0] == Value::Int(1));
        t.insert(row![3, 30], 3).unwrap();
        t.insert(row![4, 40], 3).unwrap(); // seals the chunk
        assert_eq!(t.rows(), vec![row![2, 20], row![3, 30], row![4, 40]]);
    }

    #[test]
    fn compact_reclaims_tombstones() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..6 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        t.delete_where(2, None, |r| r[0] < Value::Int(3));
        assert_eq!(t.dead_rows(), 3);
        let before = t.rows();
        let reclaimed = t.compact();
        assert_eq!(reclaimed, 3);
        assert_eq!(t.dead_rows(), 0);
        let mut after = t.rows();
        let mut b = before.clone();
        after.sort();
        b.sort();
        assert_eq!(after, b);
        // Delta log unaffected by physical compaction.
        assert_eq!(t.delta_log().len(), 9);
        // Idempotent.
        assert_eq!(t.compact(), 0);
    }

    #[test]
    fn bulk_load_skips_delta_log() {
        let mut t = Table::new("s", sales_schema());
        t.bulk_load((0..10).map(|i| row![i, i])).unwrap();
        assert_eq!(t.row_count(), 10);
        assert!(t.delta_log().is_empty());
    }
}
