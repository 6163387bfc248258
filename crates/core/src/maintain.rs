//! The incremental maintenance procedure (Def. 4.5).
//!
//! A [`SketchMaintainer`] owns everything the sketch store keeps per query
//! (paper §2): the sketch itself, the incremental operator state `S`, the
//! database version the sketch was last maintained at, and the
//! [`AnnotPool`] / [`RowInterner`] pair every delta batch of this query is
//! interpreted against. `maintain` implements
//! `I(Q, Φ, S, Δ𝒟) = (ΔP, S′)`: fetch the annotated delta since the last
//! maintained version, push it through the operator tree, merge the
//! result deltas into a sketch delta, apply it.

use crate::delta::{delta_heap_size, delta_heap_size_flat, DeltaBatch, DeltaEntry};
use crate::metrics::MaintMetrics;
use crate::ops::{IncNode, MaintCtx, MergeOp, OpConfig};
use crate::opt::pushdown::pushable_predicates;
use crate::Result;
use imp_engine::{Bag, Database};
use imp_sketch::{annotate_delta, annotation_id_for_row, PartitionSet, SketchDelta, SketchSet};
use imp_sql::{Expr, LogicalPlan};
use imp_storage::{AnnotPool, FxHashMap, PoolStats, RowInterner};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Row-interner size above which a run with zero intern hits flushes the
/// cache (fresh-insert streams would otherwise pin dead payloads).
const COLD_ROW_CACHE_FLUSH: usize = 1024;

/// Pool size (distinct annotations) above which the pool is rebuilt
/// before a run. Ids are only live *within* one maintenance/bootstrap
/// call — operator state holds fragment counters or `Arc<BitVec>`
/// content handles, never ids — so flushing between runs is safe; it
/// trades memoization warmth for a hard memory bound on churny
/// annotation populations.
pub const POOL_FLUSH_LEN: usize = 1 << 16;

/// Outcome of one maintenance run.
#[derive(Debug, Clone)]
pub struct MaintReport {
    /// The sketch delta applied (`ΔP`).
    pub sketch_delta: SketchDelta,
    /// Cost counters.
    pub metrics: MaintMetrics,
    /// Whether bounded state forced a full recapture.
    pub recaptured: bool,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Operator-state heap footprint after the run (Fig. 15/17).
    pub state_bytes: usize,
    /// Per-input probe counts of the n-ary join circuit during this run
    /// (empty when the plan compiled to the binary fallback, or on the
    /// empty fast-path / recapture paths where no probing happened).
    pub nary_input_probes: Vec<u64>,
}

impl MaintReport {
    /// The run's cost as the [`crate::advisor`] accounts it: wall-clock
    /// nanoseconds plus the delta rows consumed (fetched from the log or
    /// routed in).
    pub fn advisor_cost(&self) -> crate::advisor::MaintCost {
        crate::advisor::MaintCost {
            nanos: self.duration.as_nanos() as u64,
            delta_rows: self.metrics.delta_rows_fetched,
        }
    }
}

/// Per-query maintenance state: sketch + operator states + version.
#[derive(Debug)]
pub struct SketchMaintainer {
    plan: LogicalPlan,
    pset: Arc<PartitionSet>,
    root: IncNode,
    merge: MergeOp,
    sketch: SketchSet,
    last_version: u64,
    tables: Vec<String>,
    pushdown: Option<Vec<(String, Expr)>>,
    op_config: OpConfig,
    /// Annotation arena for this query's delta pipeline. Persists across
    /// runs so memoized unions keep paying off for repeated annotations.
    pool: AnnotPool,
    /// Deduplicates delta row payloads at ingestion.
    rows: RowInterner,
}

impl SketchMaintainer {
    /// Capture a sketch for `plan` and bootstrap operator state by feeding
    /// the full current database through the incremental pipeline as
    /// insertions from the empty state. Returns the maintainer plus the
    /// query result (capture answers the query too, Fig. 2).
    pub fn capture(
        plan: &LogicalPlan,
        db: &Database,
        pset: Arc<PartitionSet>,
        op_config: OpConfig,
        selection_pushdown: bool,
    ) -> Result<(SketchMaintainer, Bag)> {
        let root = IncNode::build(plan, &op_config)?;
        let tables = plan.tables();
        let pushdown = selection_pushdown.then(|| pushable_predicates(plan));
        let mut m = SketchMaintainer {
            plan: plan.clone(),
            merge: MergeOp::new(pset.total_fragments()),
            sketch: SketchSet::empty(Arc::clone(&pset)),
            pool: AnnotPool::new(pset.total_fragments()),
            rows: RowInterner::new(),
            pset,
            root,
            last_version: 0,
            tables,
            pushdown,
            op_config,
        };
        let mut metrics = MaintMetrics::default();
        let result = m.bootstrap(db, &mut metrics)?;
        Ok((m, result))
    }

    /// Rebuild state + sketch from the full current database, accumulating
    /// the work into `metrics` (recapture paths report it, Fig. 13/14).
    /// The pool is kept — its ids stay canonical and memoized unions
    /// remain valid.
    fn bootstrap(&mut self, db: &Database, metrics: &mut MaintMetrics) -> Result<Bag> {
        self.root.reset();
        self.merge.reset();
        self.sketch = SketchSet::empty(Arc::clone(&self.pset));

        let mut deltas: FxHashMap<String, DeltaBatch> = FxHashMap::default();
        for table in &self.tables {
            let t = db.table(table)?;
            let mut delta = DeltaBatch::with_capacity(t.row_count());
            let part = self.pset.for_table(table);
            let pool = &mut self.pool;
            t.scan(
                None,
                |row| {
                    let annot = match &part {
                        Some((_, offset, p)) => {
                            pool.singleton(offset + p.fragment_of(&row[p.column]))
                        }
                        None => pool.empty_id(),
                    };
                    delta.push(DeltaEntry {
                        row,
                        annot,
                        mult: 1,
                    });
                },
                |_| {},
            );
            deltas.insert(table.clone(), self.apply_pushdown(table, delta, None));
        }
        let out = {
            let mut ctx = MaintCtx {
                db,
                pset: &self.pset,
                deltas: &deltas,
                pool: &mut self.pool,
                metrics,
                needs_recapture: false,
            };
            self.root.process(&mut ctx)?
        };
        let delta = self.merge.process(&out, &self.pool)?;
        self.sketch.apply_delta(&delta);
        // Split-invariant versioning: the scan consumed every row of the
        // sketch's tables, i.e. everything up to the last logged record of
        // those tables. Using that (instead of the global `db.version()`)
        // makes the version a pure function of the consumed content, so a
        // sequential full-range run and a scheduler-routed sub-range run
        // land on byte-identical versions. The `max` guards against
        // regression when a vacuumed log no longer holds its tail.
        self.last_version = self.last_version.max(tables_log_version(db, &self.tables)?);
        // Bootstrap output from the empty state is the full query result.
        Ok(out
            .into_iter()
            .filter(|d| d.mult > 0)
            .map(|d| (d.row, d.mult))
            .collect())
    }

    /// Pre-filter a table's delta with push-down predicates (§7.2).
    fn apply_pushdown(
        &self,
        table: &str,
        delta: DeltaBatch,
        metrics: Option<&mut MaintMetrics>,
    ) -> DeltaBatch {
        let Some(preds) = &self.pushdown else {
            return delta;
        };
        let preds: Vec<&Expr> = preds
            .iter()
            .filter(|(t, _)| t == table)
            .map(|(_, p)| p)
            .collect();
        if preds.is_empty() {
            return delta;
        }
        let before = delta.len();
        let kept: DeltaBatch = delta
            .into_iter()
            .filter(|d| {
                preds
                    .iter()
                    .all(|p| p.eval_predicate(&d.row).unwrap_or(true))
            })
            .collect();
        if let Some(m) = metrics {
            m.delta_rows_pruned += (before - kept.len()) as u64;
        }
        kept
    }

    /// Is the sketch stale w.r.t. the current database?
    pub fn is_stale(&self, db: &Database) -> bool {
        self.tables.iter().any(|t| {
            db.delta_since(t, self.last_version)
                .map(|d| !d.is_empty())
                .unwrap_or(false)
        })
    }

    /// Incrementally maintain the sketch to the current database version.
    pub fn maintain(&mut self, db: &Database) -> Result<MaintReport> {
        let start = Instant::now();
        let mut metrics = MaintMetrics::default();
        if self.pool.len() > POOL_FLUSH_LEN {
            self.flush_pool_caches();
        }
        let pool_stats_before = self.pool.stats();
        let row_hits_before = self.rows.hits();

        // Fetch + annotate + (optionally) pre-filter the deltas.
        let mut deltas: FxHashMap<String, DeltaBatch> = FxHashMap::default();
        let mut max_seen = 0u64;
        for table in &self.tables {
            let records = db.delta_since(table, self.last_version)?;
            metrics.delta_rows_fetched += records.len() as u64;
            if let Some(last) = records.last() {
                max_seen = max_seen.max(last.version);
            }
            let annotated =
                annotate_delta(&mut self.pool, &mut self.rows, &self.pset, table, records);
            let filtered = self.apply_pushdown(table, annotated, Some(&mut metrics));
            deltas.insert(table.clone(), crate::delta::normalize_delta(filtered));
        }
        self.flush_cold_row_cache(row_hits_before);
        self.run_prepared(db, deltas, max_seen, metrics, start, pool_stats_before)
    }

    /// Maintain from scheduler-routed table deltas instead of fetching
    /// from the backend's delta logs (the [`crate::sched`] shard workers'
    /// path). Entries at or below the maintained version are skipped, so
    /// a routed batch may safely overlap history the sketch has already
    /// consumed (e.g. after an on-demand [`Self::maintain`] overtook the
    /// queue). Produces byte-identical sketches and versions to the
    /// fetching path run over the same record ranges.
    pub fn maintain_from(
        &mut self,
        db: &Database,
        routed: &FxHashMap<String, Vec<Arc<crate::sched::TableDelta>>>,
    ) -> Result<MaintReport> {
        let start = Instant::now();
        let mut metrics = MaintMetrics::default();
        if self.pool.len() > POOL_FLUSH_LEN {
            self.flush_pool_caches();
        }
        let pool_stats_before = self.pool.stats();
        let row_hits_before = self.rows.hits();

        let mut deltas: FxHashMap<String, DeltaBatch> = FxHashMap::default();
        let mut max_seen = 0u64;
        for table in &self.tables {
            // Version-filter the routed batches and annotate each entry
            // exactly as `annotate_delta` does for fetched records.
            let mut annotated = DeltaBatch::new();
            for batch in routed.get(table).map(Vec::as_slice).unwrap_or_default() {
                for entry in batch
                    .entries
                    .iter()
                    .filter(|e| e.version > self.last_version)
                {
                    let annot =
                        annotation_id_for_row(&mut self.pool, &self.pset, table, &entry.row);
                    annotated.push_entry(self.rows.intern(entry.row.clone()), annot, entry.mult);
                }
                max_seen = max_seen.max(batch.to_version);
            }
            metrics.delta_rows_fetched += annotated.len() as u64;
            let filtered = self.apply_pushdown(table, annotated, Some(&mut metrics));
            deltas.insert(table.clone(), crate::delta::normalize_delta(filtered));
        }
        self.flush_cold_row_cache(row_hits_before);
        self.run_prepared(db, deltas, max_seen, metrics, start, pool_stats_before)
    }

    /// A stream of fresh inserts never hits the interner; drop a grown
    /// cold cache so dead payloads don't stay pinned for the maintainer's
    /// lifetime (the in-flight batches keep their `Arc`s).
    fn flush_cold_row_cache(&mut self, row_hits_before: u64) {
        if self.rows.hits() == row_hits_before && self.rows.len() >= COLD_ROW_CACHE_FLUSH {
            self.rows.clear();
        }
    }

    /// Shared tail of [`Self::maintain`] / [`Self::maintain_from`]: push
    /// prepared per-table batches through the operator tree, fall back to
    /// recapture when bounded state exhausts, apply the sketch delta, and
    /// advance the version to the highest record version consumed
    /// (split-invariant — see [`Self::maintain`]'s bootstrap notes).
    fn run_prepared(
        &mut self,
        db: &Database,
        deltas: FxHashMap<String, DeltaBatch>,
        max_seen: u64,
        mut metrics: MaintMetrics,
        start: Instant,
        pool_stats_before: PoolStats,
    ) -> Result<MaintReport> {
        // Memory accounting walks every entry; keep its cost out of the
        // reported maintenance duration (it is measurement, not work the
        // flat representation would have avoided).
        let acct_start = Instant::now();
        for batch in deltas.values() {
            metrics.delta_bytes_pooled += delta_heap_size(batch, &self.pool) as u64;
            metrics.delta_bytes_flat += delta_heap_size_flat(batch, &self.pool) as u64;
        }
        let accounting = acct_start.elapsed();
        if deltas.values().all(|b| b.is_empty()) {
            // Nothing survived (or nothing new): advance past records that
            // were consumed-but-pruned so they are not refetched.
            self.last_version = self.last_version.max(max_seen);
            return Ok(MaintReport {
                sketch_delta: SketchDelta::default(),
                metrics,
                recaptured: false,
                duration: start.elapsed().saturating_sub(accounting),
                state_bytes: self.state_heap_size(),
                nary_input_probes: Vec::new(),
            });
        }

        let (out, recapture) = {
            let mut ctx = MaintCtx {
                db,
                pset: &self.pset,
                deltas: &deltas,
                pool: &mut self.pool,
                metrics: &mut metrics,
                needs_recapture: false,
            };
            let out = self.root.process(&mut ctx)?;
            (out, ctx.needs_recapture)
        };

        if recapture {
            // Bounded state exhausted: fall back to full maintenance
            // (§7.2 / §8.4.3), reporting it — including the bootstrap's
            // own work — so callers can account for it.
            let before = self.sketch.clone();
            self.bootstrap(db, &mut metrics)?;
            let sketch_delta = diff_sketches(&before, &self.sketch);
            metrics.record_pool_activity(pool_stats_before, self.pool.stats());
            return Ok(MaintReport {
                sketch_delta,
                metrics,
                recaptured: true,
                duration: start.elapsed().saturating_sub(accounting),
                state_bytes: self.state_heap_size(),
                nary_input_probes: Vec::new(),
            });
        }

        let sketch_delta = self.merge.process(&out, &self.pool)?;
        self.sketch.apply_delta(&sketch_delta);
        self.last_version = self.last_version.max(max_seen);
        metrics.record_pool_activity(pool_stats_before, self.pool.stats());
        Ok(MaintReport {
            sketch_delta,
            metrics,
            recaptured: false,
            duration: start.elapsed().saturating_sub(accounting),
            state_bytes: self.state_heap_size(),
            nary_input_probes: self.root.nary_probe_counts().unwrap_or_default(),
        })
    }

    /// Full maintenance: recapture from scratch regardless of staleness
    /// (the FM baseline of §8). The report carries the bootstrap's real
    /// cost counters, not zeros.
    pub fn full_maintain(&mut self, db: &Database) -> Result<MaintReport> {
        let start = Instant::now();
        let pool_stats_before = self.pool.stats();
        let before = self.sketch.clone();
        let mut metrics = MaintMetrics::default();
        self.bootstrap(db, &mut metrics)?;
        metrics.record_pool_activity(pool_stats_before, self.pool.stats());
        Ok(MaintReport {
            sketch_delta: diff_sketches(&before, &self.sketch),
            metrics,
            recaptured: true,
            duration: start.elapsed(),
            state_bytes: self.state_heap_size(),
            nary_input_probes: Vec::new(),
        })
    }

    /// The maintained sketch (valid as of [`Self::version`]).
    pub fn sketch(&self) -> &SketchSet {
        &self.sketch
    }

    /// Database version the sketch is valid for.
    pub fn version(&self) -> u64 {
        self.last_version
    }

    /// The maintained query plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The partitions `Φ`.
    pub fn partitions(&self) -> &Arc<PartitionSet> {
        &self.pset
    }

    /// Base tables whose updates invalidate this sketch.
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    /// Operator tuning configuration.
    pub fn op_config(&self) -> OpConfig {
        self.op_config
    }

    /// The annotation pool backing this query's delta pipeline.
    pub fn pool(&self) -> &AnnotPool {
        &self.pool
    }

    /// Cumulative pool activity (hash-consing, union memoization, and
    /// row interning).
    pub fn pool_stats(&self) -> PoolStats {
        let mut stats = self.pool.stats();
        stats.rows_interned = self.rows.interned();
        stats.row_hits = self.rows.hits();
        stats
    }

    /// Entries and bytes of the top-k operator state (Fig. 13e/f).
    pub fn topk_state(&self) -> Option<(usize, usize)> {
        self.root.topk_state()
    }

    /// Number of inputs of the n-ary join circuit, if the plan compiled
    /// to one (`None` means the binary-tree fallback is in use).
    pub fn nary_arity(&self) -> Option<usize> {
        self.root.nary_arity()
    }

    /// Canonical signature of the n-ary join circuit (input schemas +
    /// equivalence classes), if the plan compiled to one. Identical
    /// across all parse shapes of the same equi-join set.
    pub fn nary_signature(&self) -> Option<String> {
        self.root.nary_signature()
    }

    /// Aggregate entries and bytes of the join-side indexes (Fig. 17).
    pub fn join_index_state(&self) -> (usize, usize) {
        self.root.join_index_state()
    }

    /// Drop the in-memory operator state (after persisting it via
    /// [`crate::state_codec::save_state`]); the sketch and version stay
    /// available for use-rewrites. The annotation pool and row interner
    /// are flushed too — no batch is in flight, and restoring re-interns
    /// what the state needs. Restore with
    /// [`crate::state_codec::load_state`] before the next maintenance.
    pub fn drop_state(&mut self) {
        self.root.reset();
        self.merge.reset();
        self.pool.clear();
        self.rows.clear();
    }

    /// Heap footprint of all operator state + merge counters + sketch +
    /// the interning pools, with shared-ownership-aware attribution of
    /// annotation contents (each allocation counted exactly once, whether
    /// the pool or only the operator state keeps it alive).
    pub fn state_heap_size(&self) -> usize {
        self.root.heap_size()
            + self.merge.heap_size()
            + self.sketch.heap_size()
            + self.pool.heap_size()
            + self.rows.heap_size()
            + self.unpooled_annot_bytes()
    }

    /// Heap bytes of annotation contents kept alive *only* by operator
    /// state `Arc<BitVec>` handles (top-k entries, join-side indexes) and
    /// not owned by the pool. Normally zero — state handles come from
    /// [`AnnotPool::share`], so the pool's own `heap_size` covers their
    /// contents — but after a between-runs pool flush (the
    /// [`POOL_FLUSH_LEN`] bound, or [`Self::flush_pool_caches`]) those
    /// bitvectors live on solely through the state's handles and would
    /// otherwise be counted by neither side. Each distinct allocation
    /// counts once, however many entries share it.
    pub fn unpooled_annot_bytes(&self) -> usize {
        let mut seen: imp_storage::FxHashSet<usize> = imp_storage::FxHashSet::default();
        let mut bytes = 0usize;
        let pool = &self.pool;
        self.root.for_each_annot(&mut |handle| {
            if seen.insert(std::sync::Arc::as_ptr(handle) as usize) && !pool.owns(handle) {
                bytes += handle.heap_size() + std::mem::size_of::<imp_storage::BitVec>();
            }
        });
        bytes
    }

    /// Flush the annotation pool between runs (the bound-triggered
    /// [`POOL_FLUSH_LEN`] flush, exposed for memory-pressure callers and
    /// tests). Safe at any between-runs point: ids are only live within
    /// one maintenance/bootstrap call — persistent operator state holds
    /// fragment counters or `Arc<BitVec>` content handles, never ids.
    /// Trades memoization warmth (and the pool's coverage of state-held
    /// annotation contents — see [`Self::unpooled_annot_bytes`]) for a
    /// hard bound on the pool's footprint.
    pub fn flush_pool_caches(&mut self) {
        self.pool.clear();
    }

    /// Internal accessors for state persistence (see [`crate::state_codec`]).
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (
        &mut IncNode,
        &mut MergeOp,
        &mut SketchSet,
        &mut u64,
        &mut AnnotPool,
    ) {
        (
            &mut self.root,
            &mut self.merge,
            &mut self.sketch,
            &mut self.last_version,
            &mut self.pool,
        )
    }

    /// Internal accessors for state persistence.
    pub(crate) fn parts(&self) -> (&IncNode, &MergeOp, &SketchSet, u64) {
        (&self.root, &self.merge, &self.sketch, self.last_version)
    }
}

/// Highest logged record version across `tables` (0 when their logs are
/// empty): the version a from-scratch scan of those tables represents.
fn tables_log_version(db: &Database, tables: &[String]) -> Result<u64> {
    let mut v = 0u64;
    for table in tables {
        if let Some(last) = db.table(table)?.delta_log().all().last() {
            v = v.max(last.version);
        }
    }
    Ok(v)
}

/// Compute the delta between two sketch versions (`ΔP` with
/// `P₂ = P₁ ∪• ΔP`).
pub fn diff_sketches(before: &SketchSet, after: &SketchSet) -> SketchDelta {
    let mut delta = SketchDelta::default();
    let n = before.bits().len();
    for f in 0..n {
        match (before.contains(f), after.contains(f)) {
            (false, true) => delta.added.push(f),
            (true, false) => delta.removed.push(f),
            _ => {}
        }
    }
    delta
}
