//! The IMP middleware (paper Fig. 2).
//!
//! "IMP operates as a middleware between the user and a DBMS. … For each
//! incoming query, IMP determines whether to (i) capture a new sketch,
//! (ii) use an existing non-stale sketch, or (iii) incrementally maintain
//! a stale sketch and then utilize the updated sketch to answer the
//! query." Updates route to the backend and, under the eager strategy,
//! trigger incremental maintenance of the affected sketches.
//!
//! The sketch store has two backends, selected by
//! [`ImpConfig::sched_workers`]:
//!
//! * **In-line** (`sched_workers == 0`, the default): sketches live in a
//!   map owned by [`Imp`] and are maintained on the calling thread,
//!   exactly as the paper describes.
//! * **Sharded** (`sched_workers ≥ 1`): sketch ownership moves into the
//!   [`crate::sched`] scheduler — a pool of shard workers fed by a
//!   per-table delta router. Updates return as soon as the delta is
//!   routed; queries read versioned published sketch snapshots and only
//!   synchronize with a shard when they need a stale sketch maintained.

use crate::advisor::{
    Advisor, AdvisorParams, AdvisorReport, Lifecycle, SketchCard, SketchKey, UseKind,
    MAX_ENFORCEMENT_ROUNDS,
};
use crate::error::CoreError;
use crate::maintain::{MaintReport, SketchMaintainer};
use crate::obs::{HealthConfig, Obs, ObsConfig, Probe};
use crate::obsd::{start_obsd, ObsdHandle, ObsdState, OBSD_ADDR_ENV};
use crate::ops::OpConfig;
use crate::sched::Scheduler;
use crate::strategy::MaintenanceStrategy;
use crate::Result;
use imp_engine::{Bag, Database, QueryResult};
use imp_engine::{EngineError, ExecStats};
use imp_sketch::{apply_sketch_filter, safety, PartitionSet, RangePartition, SketchSet};
use imp_sql::ast::BinOp;
use imp_sql::{Expr, LogicalPlan, QueryTemplate, Resolver, SelectStmt, Statement};
use imp_storage::{BitVec, FxHashMap};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Middleware configuration.
#[derive(Debug, Clone)]
pub struct ImpConfig {
    /// Eager or lazy maintenance (§2, §8.5).
    pub strategy: MaintenanceStrategy,
    /// Fragments per range partition (`#frag`, §8.3.5).
    pub fragments: usize,
    /// Maintain bloom filters for joins (§7.2).
    pub bloom: bool,
    /// Push selections into delta retrieval (§7.2).
    pub selection_pushdown: bool,
    /// Bounded MIN/MAX state: keep the best `l` values (§7.2). Bounded to
    /// [`crate::ops::DEFAULT_MINMAX_BUFFER`] by default; the recapture
    /// fallback keeps results exact when a buffer exhausts.
    pub minmax_buffer: Option<usize>,
    /// Bounded top-k state: keep the best `l` entries (§7.2/§8.4.3).
    pub topk_buffer: Option<usize>,
    /// Per-side join-index budget (annotated tuples): materialise join
    /// sides as delta-maintained indexes so steady-state `Q ⋈ Δ` terms
    /// skip the backend round trip; a side over budget falls back to
    /// per-batch evaluation. `None` disables the indexes. Bounded to
    /// [`crate::ops::DEFAULT_JOIN_INDEX_BUDGET`] by default.
    pub join_index_budget: Option<usize>,
    /// Compile flattenable equi-join trees of three or more inputs into
    /// the n-ary delta circuit ([`crate::ops::NaryJoinOp`], `true` by
    /// default). `false` keeps every join on the binary-tree path — the
    /// oracle configuration the `nary_differential` suite compares
    /// against.
    pub nary_join: bool,
    /// Has no effect: every delta kernel has a single row-at-a-time
    /// path. Kept only because the benchmark's replay copies it into an
    /// [`OpConfig`] struct literal; nothing reads it.
    pub columnar_min: usize,
    /// Explicit partition-attribute choices (table → attribute), taking
    /// precedence over the safety heuristic (§7.4).
    pub partition_overrides: Vec<(String, String)>,
    /// Permit partitions on attributes the safety analysis cannot prove
    /// safe (paper §4.4 assumes safety; Fig. 5 uses such an attribute).
    pub allow_unsafe_attributes: bool,
    /// Retain immutable past sketch versions (§2).
    pub retain_sketch_versions: bool,
    /// Shard workers of the maintenance scheduler ([`crate::sched`]).
    /// `0` (default) keeps the in-line store: sketches are maintained on
    /// the calling thread according to `strategy`. With `≥ 1`, sketch
    /// ownership moves into a [`crate::sched::ShardPool`]: every update
    /// is ingested once per table and fanned out to the shards whose
    /// sketches reference it, and maintenance runs asynchronously with
    /// per-table coalescing (the scheduler supersedes the foreground
    /// behavior of `strategy`; the `maintenance` reports of
    /// [`ImpResponse::Affected`] are then always empty).
    pub sched_workers: usize,
    /// Scheduler coalescing bound: pending routed delta rows *per table*
    /// a shard folds into a single maintenance run before flushing.
    pub coalesce_budget: usize,
    /// Work stealing between shard workers (`true` by default): an idle
    /// worker claims whole coalesced batches from a loaded shard's inbox,
    /// serialized by the victim's state lock so sketch bits stay
    /// byte-identical to the owner draining alone (the
    /// `steal_differential` suite proves it). Set `false` to pin every
    /// shard's maintenance to its own worker thread.
    pub work_stealing: bool,
    /// Capacity of the async-ingest staging queue: committed updates
    /// stage their table name here and return immediately, leaving log
    /// collection and fan-out to the shard workers. `0` disables async
    /// ingest (updates collect and fan out inline, as in the in-line
    /// store); a full queue also falls back inline, counted in
    /// [`crate::metrics::SchedStats::backpressure_stalls`].
    pub ingest_queue_cap: usize,
    /// Heap-byte budget for the sketch store, enforced by the
    /// [`crate::advisor`] autopilot: every [`Imp::tick_maintenance`] (and
    /// explicit [`Imp::advise`]) runs a selection pass that keeps the
    /// highest-scoring sketches fully maintained and demotes the rest
    /// along the lifecycle ladder until `store_heap_size() ≤ budget`.
    /// `None` (default) disables the autopilot; the workload tracker
    /// still records usage either way.
    pub sketch_memory_budget: Option<usize>,
    /// Cost-model weights of the advisor (`benefit − α·maintain − β·heap`).
    pub advisor: AdvisorParams,
    /// Observability: unified metrics registry, latency histograms, and
    /// pipeline tracing (see [`crate::obs`]). Off by default — the
    /// disabled hot path costs a branch and allocates nothing.
    pub obs: ObsConfig,
    /// Address of the obsd telemetry endpoint (see [`crate::obsd`]),
    /// e.g. `"127.0.0.1:9464"`; `"127.0.0.1:0"` binds an ephemeral port
    /// reported by [`Imp::obsd_addr`]. `None` (default) falls back to the
    /// `IMP_OBSD_ADDR` environment variable; unset means no endpoint.
    /// Starting obsd also starts the [`crate::obs::health`] watchdog
    /// ticker configured by `health`.
    pub obsd_addr: Option<String>,
    /// Health watchdog thresholds and cadence (active only while the
    /// obsd endpoint runs; see [`crate::obs::health`]).
    pub health: HealthConfig,
}

/// Default [`ImpConfig::coalesce_budget`].
pub const DEFAULT_COALESCE_BUDGET: usize = 4096;

/// Default [`ImpConfig::ingest_queue_cap`].
pub const DEFAULT_INGEST_QUEUE_CAP: usize = 256;

impl Default for ImpConfig {
    fn default() -> Self {
        ImpConfig {
            strategy: MaintenanceStrategy::Lazy,
            fragments: 100,
            bloom: true,
            selection_pushdown: true,
            minmax_buffer: Some(crate::ops::DEFAULT_MINMAX_BUFFER),
            topk_buffer: None,
            join_index_budget: Some(crate::ops::DEFAULT_JOIN_INDEX_BUDGET),
            nary_join: true,
            columnar_min: 0,
            partition_overrides: Vec::new(),
            allow_unsafe_attributes: false,
            retain_sketch_versions: true,
            sched_workers: 0,
            coalesce_budget: DEFAULT_COALESCE_BUDGET,
            work_stealing: true,
            ingest_queue_cap: DEFAULT_INGEST_QUEUE_CAP,
            sketch_memory_budget: None,
            advisor: AdvisorParams::default(),
            obs: ObsConfig::default(),
            obsd_addr: None,
            health: HealthConfig::default(),
        }
    }
}

impl ImpConfig {
    pub(crate) fn op_config(&self) -> OpConfig {
        OpConfig {
            bloom: self.bloom,
            minmax_buffer: self.minmax_buffer,
            topk_buffer: self.topk_buffer,
            join_index_budget: self.join_index_budget,
            nary_join: self.nary_join,
            ..OpConfig::default()
        }
    }
}

/// How a SELECT was answered.
#[derive(Debug, Clone)]
pub enum QueryMode {
    /// No safe sketch attribute: answered directly, no sketch involved.
    NoSketch,
    /// A new sketch was captured (and used) for this query.
    Captured,
    /// An existing fresh sketch was used as-is.
    UsedFresh,
    /// A stale sketch was incrementally maintained, then used. Boxed: a
    /// report is far larger than the other (data-free) variants.
    Maintained(Box<MaintReport>),
}

/// Response of [`Imp::execute`].
#[derive(Debug, Clone)]
pub enum ImpResponse {
    /// SELECT result.
    Rows {
        /// The query result.
        result: QueryResult,
        /// How the query was answered.
        mode: QueryMode,
    },
    /// Update result, with any eager maintenance that ran.
    Affected {
        /// Updated table.
        table: String,
        /// Affected row count.
        count: u64,
        /// Commit version.
        version: u64,
        /// Reports of eagerly maintained sketches.
        maintenance: Vec<MaintReport>,
    },
    /// DDL succeeded.
    Created,
    /// EXPLAIN output: the resolved logical plan as text.
    Explained(String),
}

/// One stored sketch: "for each sketch we store the sketch itself, the
/// query it was captured for, the current state of incremental operators
/// for this query, and the database version it was last maintained at"
/// (§2).
#[derive(Debug)]
pub struct StoredSketch {
    /// Original SQL of the capturing query.
    pub sql: String,
    /// Resolved plan of the capturing query.
    pub plan: LogicalPlan,
    /// Sketch + operator state + version.
    pub maintainer: SketchMaintainer,
    /// Retained immutable sketch versions (version → bits).
    pub versions: BTreeMap<u64, BitVec>,
    /// Delta rows accumulated since the last maintenance (eager batching).
    pub pending_rows: u64,
    /// Evicted operator state (paper §2: "when we are running out of
    /// memory and need to evict the operator states for a query"). When
    /// set, the in-memory state has been reset and must be restored from
    /// these bytes before the next maintenance.
    pub evicted: Option<bytes::Bytes>,
    /// Rung on the advisor's lifecycle ladder (see [`crate::advisor`]).
    /// Everything below [`Lifecycle::Maintained`] is excluded from
    /// proactive maintenance and only brought current on demand.
    pub lifecycle: Lifecycle,
    /// Cached immutable publication metadata (sharded backend): the
    /// plan/SQL/tables wrapped in `Arc` once, so snapshot publication
    /// does not deep-clone them on every maintenance flush. Lazily
    /// filled by the owning shard worker; survives repartitioning (the
    /// plan does not change).
    pub(crate) published_meta: Option<PublishedMeta>,
}

/// The `Arc`-wrapped immutable parts of a published sketch (see
/// [`crate::sched::PublishedSketch`]).
#[derive(Debug, Clone)]
pub(crate) struct PublishedMeta {
    pub(crate) sql: Arc<str>,
    pub(crate) plan: Arc<LogicalPlan>,
    pub(crate) tables: Arc<[String]>,
}

/// One row of [`Imp::describe_sketches`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSummary {
    /// Canonical query template.
    pub template: String,
    /// Original SQL the sketch was captured for.
    pub sql: String,
    /// Database version the sketch is valid for.
    pub version: u64,
    /// Marked fragments.
    pub fragments: usize,
    /// Fragments in the partition set.
    pub total_fragments: usize,
    /// Operator-state heap bytes.
    pub state_bytes: usize,
    /// Retained immutable versions.
    pub retained_versions: usize,
    /// Stale w.r.t. the current database?
    pub stale: bool,
    /// Rung on the advisor's lifecycle ladder.
    pub lifecycle: Lifecycle,
}

/// One row of [`Imp::sketch_states`]: the externally comparable state of
/// a stored sketch (the differential scheduler tests assert byte-identical
/// rows between the in-line and sharded backends).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SketchStateView {
    /// Canonical query template.
    pub template: String,
    /// Original SQL the sketch was captured for.
    pub sql: String,
    /// Database version the sketch is valid for.
    pub version: u64,
    /// The sketch bits.
    pub bits: BitVec,
}

/// Maximum sketches retained per query template (candidates differing in
/// constants; the template prefilter of §7.1 narrows to these).
pub(crate) const MAX_SKETCHES_PER_TEMPLATE: usize = 4;

/// The sketch store: in-line map or the sharded scheduler.
enum SketchBackend {
    /// Owned by [`Imp`], maintained on the calling thread.
    Inline(FxHashMap<QueryTemplate, Vec<StoredSketch>>),
    /// Owned by the shard workers of a [`Scheduler`].
    Sharded(Scheduler),
}

/// The IMP system.
pub struct Imp {
    db: Arc<RwLock<Database>>,
    store: SketchBackend,
    config: ImpConfig,
    advisor: Advisor,
    obs: Arc<Obs>,
    obsd: Option<ObsdHandle>,
}

impl Imp {
    /// Wrap a backend database. With [`ImpConfig::sched_workers`] ≥ 1 the
    /// sketch store is sharded across a worker pool (see [`crate::sched`]).
    pub fn new(db: Database, config: ImpConfig) -> Imp {
        let db = Arc::new(RwLock::new(db));
        let advisor = Advisor::new(config.advisor);
        let obs = Obs::new(&config.obs);
        let store = if config.sched_workers > 0 {
            SketchBackend::Sharded(Scheduler::new(
                Arc::clone(&db),
                &config,
                Arc::clone(advisor.tracker()),
                Arc::clone(&obs),
            ))
        } else {
            SketchBackend::Inline(FxHashMap::default())
        };
        // An explicit empty address means "no endpoint", so a config can
        // override an inherited IMP_OBSD_ADDR environment variable off.
        let obsd_addr = config
            .obsd_addr
            .clone()
            .or_else(|| std::env::var(OBSD_ADDR_ENV).ok())
            .filter(|addr| !addr.is_empty());
        let obsd = obsd_addr.and_then(|addr| {
            let state = ObsdState {
                obs: Arc::clone(&obs),
                health: crate::obs::HealthState::new(),
                board: match &store {
                    SketchBackend::Sharded(sched) => Some(sched.board_handle()),
                    SketchBackend::Inline(_) => None,
                },
                tracker: Arc::clone(advisor.tracker()),
                advisor: config.advisor,
            };
            match start_obsd(&addr, state, config.health.clone()) {
                Ok(handle) => Some(handle),
                Err(e) => {
                    // Telemetry must never take the system down with it:
                    // a bad address degrades to "no endpoint", loudly.
                    eprintln!("imp: obsd failed to bind {addr}: {e}");
                    None
                }
            }
        });
        Imp {
            db,
            store,
            config,
            advisor,
            obs,
            obsd,
        }
    }

    /// Address of the live obsd telemetry endpoint, when one is running
    /// (see [`ImpConfig::obsd_addr`]).
    pub fn obsd_addr(&self) -> Option<std::net::SocketAddr> {
        self.obsd.as_ref().map(ObsdHandle::addr)
    }

    /// Deterministic JSON dump of the always-on flight recorder (the
    /// programmatic twin of obsd's `/flight`).
    pub fn flight_dump(&self) -> String {
        self.obs.flight_dump()
    }

    /// The workload advisor (tracker access and cost-model parameters).
    pub fn advisor(&self) -> &Advisor {
        &self.advisor
    }

    /// The observability hub (metrics registry, tracer, probes).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Prometheus-style text exposition of every registered metric.
    pub fn metrics_text(&self) -> String {
        self.obs.metrics_text()
    }

    /// Deterministic JSON snapshot of every registered metric.
    pub fn metrics_json(&self) -> String {
        self.obs.metrics_json()
    }

    /// Chrome trace-event JSON of all recorded pipeline spans (load in
    /// `chrome://tracing` or Perfetto). Empty `traceEvents` unless
    /// [`ObsConfig::trace`] is on.
    pub fn trace_export(&self) -> String {
        self.obs.trace_chrome_json()
    }

    /// Subscribe a typed-event probe (works even with obs disabled).
    pub fn subscribe_probe(&self, probe: Arc<dyn Probe>) {
        self.obs.subscribe(probe);
    }

    /// Shared read access to the backend database.
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read()
    }

    /// Exclusive backend access (loading data bypasses the middleware).
    pub fn db_mut(&mut self) -> RwLockWriteGuard<'_, Database> {
        self.db.write()
    }

    /// The shared database handle (shard workers and harnesses hold
    /// additional readers).
    pub fn shared_db(&self) -> &Arc<RwLock<Database>> {
        &self.db
    }

    /// Active configuration.
    pub fn config(&self) -> &ImpConfig {
        &self.config
    }

    /// The maintenance scheduler, when the sharded backend is active.
    pub fn scheduler(&self) -> Option<&Scheduler> {
        match &self.store {
            SketchBackend::Inline(_) => None,
            SketchBackend::Sharded(s) => Some(s),
        }
    }

    /// Number of stored sketches.
    pub fn sketch_count(&self) -> usize {
        match &self.store {
            SketchBackend::Inline(store) => store.values().map(Vec::len).sum(),
            // Snapshots mirror the store after every count-changing
            // operation (capture, template eviction, repartition), so no
            // inspection barrier is needed.
            SketchBackend::Sharded(sched) => sched.published_count(),
        }
    }

    /// First stored sketch for a template (tests / inspection; in-line
    /// backend only — sharded sketches live on their worker threads).
    pub fn sketch_entry(&self, template: &QueryTemplate) -> Option<&StoredSketch> {
        match &self.store {
            SketchBackend::Inline(store) => store.get(template).and_then(|v| v.first()),
            SketchBackend::Sharded(_) => None,
        }
    }

    /// Total heap footprint of all sketch state.
    pub fn store_heap_size(&self) -> usize {
        match &self.store {
            SketchBackend::Inline(store) => store.values().flatten().map(stored_heap_size).sum(),
            SketchBackend::Sharded(sched) => sched.inspect().iter().map(|r| r.heap).sum(),
        }
    }

    /// Comparable state of every stored sketch, sorted. Both backends
    /// produce identical rows for identical maintenance histories (the
    /// scheduler's differential guarantee).
    pub fn sketch_states(&self) -> Vec<SketchStateView> {
        let mut out = match &self.store {
            SketchBackend::Inline(store) => store
                .iter()
                .flat_map(|(template, entries)| {
                    entries.iter().map(|e| SketchStateView {
                        template: template.text().to_string(),
                        sql: e.sql.clone(),
                        version: e.maintainer.version(),
                        bits: e.maintainer.sketch().bits().clone(),
                    })
                })
                .collect(),
            SketchBackend::Sharded(sched) => sched
                .inspect()
                .into_iter()
                .flat_map(|r| r.states)
                .collect::<Vec<_>>(),
        };
        out.sort();
        out
    }

    /// Evict the operator state of every stored sketch to its serialized
    /// form, freeing the in-memory structures (paper §2). State is
    /// restored transparently before the next maintenance.
    pub fn evict_all_states(&mut self) -> Result<usize> {
        match &mut self.store {
            SketchBackend::Inline(store) => {
                let mut freed = 0usize;
                for entry in store.values_mut().flatten() {
                    freed += evict_stored(entry);
                }
                Ok(freed)
            }
            SketchBackend::Sharded(sched) => Ok(sched.evict_all()),
        }
    }

    /// Evict the operator state of every sketch stored for one template
    /// (all constant-variant candidates), returning the bytes freed — the
    /// single-template counterpart of [`Self::evict_all_states`], used by
    /// the advisor autopilot and available for targeted memory pressure.
    /// On the sharded backend the request travels as an `Evict` control
    /// barrier to the owning shard only. Unknown templates free 0 bytes.
    pub fn evict_state(&mut self, template: &QueryTemplate) -> Result<usize> {
        match &mut self.store {
            SketchBackend::Inline(store) => Ok(store
                .get_mut(template)
                .map(|entries| entries.iter_mut().map(evict_stored).sum())
                .unwrap_or(0)),
            SketchBackend::Sharded(sched) => Ok(sched.evict_template(template)),
        }
    }

    /// Flush every stored sketch's annotation-pool and row-interner
    /// caches (the between-runs [`crate::maintain::POOL_FLUSH_LEN`] flush,
    /// exposed for memory-pressure callers and the heap-accounting
    /// tests). Returns the number of sketches flushed.
    pub fn flush_pool_caches(&mut self) -> usize {
        match &mut self.store {
            SketchBackend::Inline(store) => {
                let mut flushed = 0usize;
                for entry in store.values_mut().flatten() {
                    entry.maintainer.flush_pool_caches();
                    flushed += 1;
                }
                flushed
            }
            SketchBackend::Sharded(sched) => sched.flush_pools(),
        }
    }

    /// Recapture every sketch with fresh equi-depth partitions — the §7.4
    /// response to a significant change in data distribution ("we can
    /// simply update the ranges and recapture sketches").
    pub fn repartition_all(&mut self) -> Result<usize> {
        match &mut self.store {
            SketchBackend::Inline(store) => {
                let db = self.db.read();
                repartition_store(store, &db, &self.config)
            }
            SketchBackend::Sharded(sched) => Ok(sched.repartition_all()),
        }
    }

    /// VACUUM the backend: compact table storage and drop delta-log
    /// records that every stored sketch has already consumed. The horizon
    /// is per table — the minimum maintained version across the sketches
    /// *referencing* that table — so a low-traffic sketch does not pin
    /// every other table's log (maintained versions are table-local, see
    /// [`SketchMaintainer::maintain`]). An unreferenced table's log is
    /// reclaimed entirely. Returns `(reclaimed row slots, dropped delta
    /// records)`.
    pub fn vacuum(&mut self) -> (usize, usize) {
        let table_versions: FxHashMap<String, u64> = match &self.store {
            SketchBackend::Inline(store) => {
                let mut mins = FxHashMap::default();
                for e in store.values().flatten() {
                    for table in e.maintainer.tables() {
                        let v = mins
                            .entry(table.clone())
                            .or_insert_with(|| e.maintainer.version());
                        *v = (*v).min(e.maintainer.version());
                    }
                }
                mins
            }
            SketchBackend::Sharded(sched) => {
                let mut mins = FxHashMap::default();
                for report in sched.inspect() {
                    for (table, version) in report.table_versions {
                        let v = mins.entry(table).or_insert(version);
                        *v = (*v).min(version);
                    }
                }
                mins
            }
        };
        let mut db = self.db.write();
        let everything = db.version();
        db.vacuum_by(|table| table_versions.get(table).copied().unwrap_or(everything))
    }

    /// Summaries of all stored sketches (the store view of paper Fig. 2).
    pub fn describe_sketches(&self) -> Vec<SketchSummary> {
        let mut out = match &self.store {
            SketchBackend::Inline(store) => {
                let db = self.db.read();
                store
                    .iter()
                    .flat_map(|(template, entries)| {
                        entries.iter().map(|e| summarize(template, e, &db))
                    })
                    .collect()
            }
            SketchBackend::Sharded(sched) => sched
                .inspect()
                .into_iter()
                .flat_map(|r| r.summaries)
                .collect::<Vec<_>>(),
        };
        out.sort_by(|a: &SketchSummary, b| a.template.cmp(&b.template));
        out
    }

    /// Execute one SQL statement through the middleware.
    pub fn execute(&mut self, sql: &str) -> Result<ImpResponse> {
        let stmt = imp_sql::parse_one(sql).map_err(EngineError::from)?;
        match stmt {
            Statement::Select(select) => self.handle_select(sql, &select),
            other => self.handle_update(&other),
        }
    }

    /// Maintain every stale [`Lifecycle::Maintained`] sketch (used by
    /// eager flushes and the background maintainer; advisor-demoted
    /// sketches are only maintained on demand by a query). On the sharded
    /// backend this is a synchronous sweep: queued routed deltas are
    /// processed first (queue order), then every still-stale sketch is
    /// brought current.
    pub fn maintain_all_stale(&mut self) -> Result<Vec<MaintReport>> {
        match &mut self.store {
            SketchBackend::Inline(store) => {
                let db = self.db.read();
                let mut reports = Vec::new();
                for (template, entries) in store.iter_mut() {
                    for entry in entries.iter_mut() {
                        if entry.lifecycle == Lifecycle::Maintained
                            && entry.maintainer.is_stale(&db)
                        {
                            let report =
                                maintain_entry(entry, &db, self.config.retain_sketch_versions)?;
                            let cost = report.advisor_cost();
                            self.obs.maintain_observed(
                                template.text(),
                                cost.nanos,
                                cost.delta_rows,
                                report.recaptured,
                            );
                            self.advisor.tracker().record_maintenance(
                                SketchKey::new(template.text(), entry.sql.clone()),
                                cost,
                            );
                            reports.push(report);
                        }
                    }
                }
                Ok(reports)
            }
            SketchBackend::Sharded(sched) => sched.maintain_stale(),
        }
    }

    /// One background-maintenance tick: the in-line backend maintains all
    /// stale sketches on this thread; the sharded backend enqueues a
    /// maintain-stale sweep on every shard and returns immediately (the
    /// workers do the maintenance in parallel, off this thread). With a
    /// [`ImpConfig::sketch_memory_budget`] configured, every tick also
    /// runs one advisor autopilot pass ([`Self::advise`]).
    pub fn tick_maintenance(&mut self) -> Result<usize> {
        let maintained = match &mut self.store {
            SketchBackend::Inline(_) => None,
            SketchBackend::Sharded(sched) => {
                sched.kick_maintenance();
                Some(0)
            }
        };
        let maintained = match maintained {
            Some(n) => n,
            None => self.maintain_all_stale()?.len(),
        };
        if self.config.sketch_memory_budget.is_some() {
            self.advise()?;
        }
        Ok(maintained)
    }

    /// Run one advisor autopilot pass: score every stored sketch from the
    /// workload tracker, keep the best set under
    /// [`ImpConfig::sketch_memory_budget`], demote the losers along the
    /// lifecycle ladder (escalating until the store fits the budget), and
    /// promote re-hot demoted sketches back to full maintenance. A no-op
    /// (default report) when no budget is configured. On the sharded
    /// backend the gather/apply steps run as control barriers on the
    /// shard workers.
    pub fn advise(&mut self) -> Result<AdvisorReport> {
        let Some(budget) = self.config.sketch_memory_budget else {
            return Ok(AdvisorReport::default());
        };
        let mut report = AdvisorReport {
            budget,
            ..AdvisorReport::default()
        };
        let mut applied_last = false;
        for escalation in 0..=MAX_ENFORCEMENT_ROUNDS {
            // One gather per round serves both planning and the budget
            // check — the cards' resident sum equals `store_heap_size`
            // without the full bits-and-summaries inspection barrier.
            let cards = self.gather_cards();
            let resident: usize = cards.iter().map(|c| c.resident).sum();
            if escalation == 0 {
                report.heap_before = resident;
                // Prune tracker entries orphaned by store removals, so
                // the tracker stays bounded by the live store.
                let live: imp_storage::FxHashSet<SketchKey> =
                    cards.iter().map(SketchCard::key).collect();
                self.advisor.tracker().retain_live(&live);
            }
            report.heap_after = resident;
            applied_last = false;
            if escalation > 0 && resident <= budget {
                break;
            }
            let planned = self.advisor.plan_round(&cards, budget, escalation);
            if escalation == 0 {
                // The regular round consumed the hot windows; cool them so
                // benefit/cost estimates are moving averages over passes.
                self.advisor.decay();
            }
            report.kept = planned.kept;
            if planned.actions.is_empty() {
                break;
            }
            report.rounds = escalation + 1;
            let outcome = self.apply_advice(&planned.actions)?;
            report.outcome.absorb(&outcome);
            applied_last = true;
        }
        if applied_last {
            // The final permitted round still applied actions: re-measure
            // so the report reflects the settled store.
            report.heap_after = self.gather_cards().iter().map(|c| c.resident).sum();
        }
        Ok(report)
    }

    /// The advisor's view of every stored sketch, sorted by store key so
    /// both backends (and repeated passes) plan over identical orders.
    fn gather_cards(&self) -> Vec<SketchCard> {
        let mut cards = match &self.store {
            SketchBackend::Inline(store) => store
                .iter()
                .flat_map(|(template, entries)| entries.iter().map(|e| advisor_card(template, e)))
                .collect(),
            SketchBackend::Sharded(sched) => sched.advise_gather(),
        };
        cards.sort_by(|a: &SketchCard, b| {
            (a.template.text(), &a.sql).cmp(&(b.template.text(), &b.sql))
        });
        cards
    }

    /// Apply one planned advisor round to the store.
    fn apply_advice(
        &mut self,
        actions: &[crate::advisor::AdviseAction],
    ) -> Result<crate::advisor::ApplyOutcome> {
        match &mut self.store {
            SketchBackend::Inline(store) => {
                let db = self.db.read();
                crate::advisor::autopilot::apply_to_store(
                    store,
                    &db,
                    &self.config,
                    self.advisor.tracker(),
                    actions,
                )
            }
            SketchBackend::Sharded(sched) => sched.advise_apply(actions),
        }
    }

    // ---- updates ----

    fn handle_update(&mut self, stmt: &Statement) -> Result<ImpResponse> {
        let _span = self.obs.span("update");
        let result = self.db.write().execute_statement(stmt)?;
        match result {
            imp_engine::update::StatementResult::Created => Ok(ImpResponse::Created),
            imp_engine::update::StatementResult::Explained(text) => {
                Ok(ImpResponse::Explained(text))
            }
            imp_engine::update::StatementResult::Rows(_) => unreachable!("SELECT handled above"),
            imp_engine::update::StatementResult::Affected {
                table,
                count,
                version,
            } => {
                let mut maintenance = Vec::new();
                match &mut self.store {
                    SketchBackend::Inline(store) => {
                        if let MaintenanceStrategy::Eager { batch_size } = self.config.strategy {
                            let db = self.db.read();
                            for (template, entries) in store.iter_mut() {
                                for entry in entries.iter_mut() {
                                    if entry.lifecycle == Lifecycle::Maintained
                                        && entry.maintainer.tables().contains(&table)
                                    {
                                        entry.pending_rows += count;
                                        if entry.pending_rows as usize >= batch_size {
                                            let report = maintain_entry(
                                                entry,
                                                &db,
                                                self.config.retain_sketch_versions,
                                            )?;
                                            let cost = report.advisor_cost();
                                            self.obs.maintain_observed(
                                                template.text(),
                                                cost.nanos,
                                                cost.delta_rows,
                                                report.recaptured,
                                            );
                                            self.advisor.tracker().record_maintenance(
                                                SketchKey::new(template.text(), entry.sql.clone()),
                                                cost,
                                            );
                                            maintenance.push(report);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    SketchBackend::Sharded(sched) => {
                        // Ingest the table's delta once; the router fans it
                        // out to the shards whose sketches reference it and
                        // maintenance proceeds asynchronously.
                        sched.route(&table);
                    }
                }
                Ok(ImpResponse::Affected {
                    table,
                    count,
                    version,
                    maintenance,
                })
            }
        }
    }

    // ---- queries ----

    fn handle_select(&mut self, sql: &str, select: &SelectStmt) -> Result<ImpResponse> {
        let _span = self.obs.span("select");
        let start = std::time::Instant::now();
        let template = QueryTemplate::of(select);
        let plan = Resolver::new(&*self.db.read())
            .resolve_select(select)
            .map_err(EngineError::from)?;
        let key = SketchKey::new(template.text(), sql.to_string());
        let response = if matches!(self.store, SketchBackend::Sharded(_)) {
            self.select_sharded(sql, template, plan)
        } else {
            self.select_inline(sql, template, plan)
        }?;
        if let ImpResponse::Rows { mode, .. } = &response {
            let nanos = start.elapsed().as_nanos() as u64;
            let label = match mode {
                QueryMode::NoSketch => "none",
                QueryMode::Captured => "capture",
                QueryMode::UsedFresh => "fresh",
                QueryMode::Maintained(_) => "maintained",
            };
            self.obs.query_observed(label, nanos);
            if !matches!(mode, QueryMode::NoSketch) {
                // Feed the advisor's tracker with the observed end-to-end
                // latency of sketch-answered queries.
                self.advisor.tracker().record_query_latency(&key, nanos);
            }
        }
        Ok(response)
    }

    /// The in-line (i)/(ii)/(iii) decision of paper Fig. 2.
    fn select_inline(
        &mut self,
        sql: &str,
        template: QueryTemplate,
        plan: LogicalPlan,
    ) -> Result<ImpResponse> {
        let SketchBackend::Inline(store) = &mut self.store else {
            unreachable!("select_inline on sharded backend")
        };
        let db = self.db.read();

        // (ii)/(iii): an existing sketch with the same template — check the
        // reuse condition (from [37]; here: structural subsumption) against
        // every stored candidate.
        if let Some(entries) = store.get_mut(&template) {
            if let Some(entry) = entries.iter_mut().find(|e| plan_subsumes(&e.plan, &plan)) {
                let key = SketchKey::new(template.text(), entry.sql.clone());
                let mode = if entry.maintainer.is_stale(&db) {
                    let report = maintain_entry(entry, &db, self.config.retain_sketch_versions)?;
                    let cost = report.advisor_cost();
                    self.obs.maintain_observed(
                        template.text(),
                        cost.nanos,
                        cost.delta_rows,
                        report.recaptured,
                    );
                    self.advisor.tracker().record_maintenance(key.clone(), cost);
                    QueryMode::Maintained(Box::new(report))
                } else {
                    // Evicted state stays evicted: the rewrite only needs
                    // the sketch bits (restoration happens lazily before
                    // the next maintenance).
                    QueryMode::UsedFresh
                };
                let kind = match &mode {
                    QueryMode::Maintained(_) => UseKind::Maintained,
                    _ => UseKind::Fresh,
                };
                self.advisor.tracker().record_use(
                    key,
                    kind,
                    estimate_rows_skipped(&db, entry.maintainer.sketch()),
                );
                let rewritten = apply_sketch_filter(&plan, entry.maintainer.sketch())?;
                let result = db.execute_plan(&rewritten)?;
                return Ok(ImpResponse::Rows { result, mode });
            }
        }

        // (i): capture a new sketch — pick partition attributes.
        let Some(pset) = choose_partitions(&db, &self.config, &plan)? else {
            // No sketchable attribute: answer directly (NS path).
            let result = db.execute_plan(&plan)?;
            return Ok(ImpResponse::Rows {
                result,
                mode: QueryMode::NoSketch,
            });
        };
        let (stored, result) = capture_stored(&db, &self.config, sql, plan, pset)?;
        self.advisor.tracker().record_use(
            SketchKey::new(template.text(), stored.sql.clone()),
            UseKind::Captured,
            estimate_rows_skipped(&db, stored.maintainer.sketch()),
        );
        if let Some(entries) = store.get_mut(&template) {
            if entries.len() >= MAX_SKETCHES_PER_TEMPLATE {
                let old = entries.remove(0); // evict the oldest candidate
                self.advisor
                    .tracker()
                    .forget(&SketchKey::new(template.text(), old.sql));
            }
        }
        store.entry(template).or_default().push(stored);
        Ok(ImpResponse::Rows {
            result,
            mode: QueryMode::Captured,
        })
    }

    /// The sharded decision: read the owning shard's published snapshot
    /// without blocking maintenance; only a stale reuse synchronizes with
    /// the worker (which brings the sketch current and replies with the
    /// fresh bits).
    fn select_sharded(
        &mut self,
        sql: &str,
        template: QueryTemplate,
        plan: LogicalPlan,
    ) -> Result<ImpResponse> {
        let SketchBackend::Sharded(sched) = &self.store else {
            unreachable!("select_sharded on inline backend")
        };

        if let Some(published) = sched.find_published(&template, &plan) {
            let key = SketchKey::new(template.text(), published.sql.to_string());
            let stale = {
                let db = self.db.read();
                published.tables.iter().any(|t| {
                    db.delta_since(t, published.version)
                        .map(|d| !d.is_empty())
                        .unwrap_or(false)
                })
            };
            if !stale {
                // (ii): use the published snapshot as-is — no shard
                // round trip, maintenance never blocked.
                let rewritten = apply_sketch_filter(&plan, &published.sketch)?;
                let db = self.db.read();
                self.advisor.tracker().record_use(
                    key,
                    UseKind::Fresh,
                    estimate_rows_skipped(&db, &published.sketch),
                );
                let result = db.execute_plan(&rewritten)?;
                return Ok(ImpResponse::Rows {
                    result,
                    mode: QueryMode::UsedFresh,
                });
            }
            // (iii): ask the owning shard to bring the sketch current
            // (queued routed deltas are processed first — queue order).
            // A worker-side maintenance failure propagates like the
            // in-line backend's would. The worker records the maintenance
            // cost; only the use is recorded here.
            if let Some(reply) = sched.maintain_sketch(&template, &plan)? {
                let rewritten = apply_sketch_filter(&plan, &reply.sketch)?;
                let db = self.db.read();
                self.advisor.tracker().record_use(
                    key,
                    UseKind::Maintained,
                    estimate_rows_skipped(&db, &reply.sketch),
                );
                let result = db.execute_plan(&rewritten)?;
                return Ok(ImpResponse::Rows {
                    result,
                    mode: QueryMode::Maintained(reply.report),
                });
            }
            // The candidate vanished between snapshot and request
            // (concurrent template eviction): fall through to a fresh
            // capture.
        }

        // (i): capture on this thread, then hand ownership to the shard.
        let captured = {
            let db = self.db.read();
            let Some(pset) = choose_partitions(&db, &self.config, &plan)? else {
                let result = db.execute_plan(&plan)?;
                return Ok(ImpResponse::Rows {
                    result,
                    mode: QueryMode::NoSketch,
                });
            };
            capture_stored(&db, &self.config, sql, plan, pset)?
        };
        let (stored, result) = captured;
        self.advisor.tracker().record_use(
            SketchKey::new(template.text(), stored.sql.clone()),
            UseKind::Captured,
            estimate_rows_skipped(&self.db.read(), stored.maintainer.sketch()),
        );
        sched.add_sketch(template, stored);
        Ok(ImpResponse::Rows {
            result,
            mode: QueryMode::Captured,
        })
    }
}

/// Capture a sketch for `plan` and package it as a [`StoredSketch`] plus
/// the (ordered) query result the capture produced.
pub(crate) fn capture_stored(
    db: &Database,
    config: &ImpConfig,
    sql: &str,
    plan: LogicalPlan,
    pset: Arc<PartitionSet>,
) -> Result<(StoredSketch, QueryResult)> {
    let (maintainer, rows) = SketchMaintainer::capture(
        &plan,
        db,
        pset,
        config.op_config(),
        config.selection_pushdown,
    )?;
    let result = QueryResult {
        schema: plan.schema(),
        rows: order_result(&plan, rows),
        stats: ExecStats::default(),
    };
    let mut versions = BTreeMap::new();
    if config.retain_sketch_versions {
        versions.insert(maintainer.version(), maintainer.sketch().bits().clone());
    }
    Ok((
        StoredSketch {
            sql: sql.to_string(),
            plan,
            maintainer,
            versions,
            pending_rows: 0,
            evicted: None,
            lifecycle: Lifecycle::Maintained,
            published_meta: None,
        },
        result,
    ))
}

/// Estimate the backend rows a rewrite with this sketch skips, summed
/// over its partitioned tables: per-partition sketch selectivity × the
/// table's equi-depth fragment shares (see
/// [`imp_engine::estimate_skipped_rows`]). The advisor's per-use benefit
/// signal.
pub(crate) fn estimate_rows_skipped(db: &Database, sketch: &SketchSet) -> u64 {
    let pset = sketch.partitions();
    let mut skipped = 0u64;
    for i in 0..pset.len() {
        let p = pset.partition(i);
        let rows = db.table(&p.table).map(|t| t.row_count()).unwrap_or(0);
        skipped += imp_engine::estimate_skipped_rows(rows, sketch.partition_selectivity(i));
    }
    skipped
}

/// Heap footprint of one stored sketch (state + retained versions).
pub(crate) fn stored_heap_size(s: &StoredSketch) -> usize {
    s.maintainer.state_heap_size() + s.versions.values().map(BitVec::heap_size).sum::<usize>()
}

/// Record the current sketch bits under the maintained version (§2
/// immutable version retention), when enabled.
pub(crate) fn retain_version(entry: &mut StoredSketch, retain: bool) {
    if retain {
        entry.versions.insert(
            entry.maintainer.version(),
            entry.maintainer.sketch().bits().clone(),
        );
    }
}

/// Restore (if evicted) and maintain one stored sketch via the direct
/// fetching path, resetting its eager batch counter and retaining the
/// new version — the per-entry maintenance step shared by both backends
/// (in-line sweeps and shard workers), so their arithmetic cannot drift.
pub(crate) fn maintain_entry(
    entry: &mut StoredSketch,
    db: &Database,
    retain: bool,
) -> Result<MaintReport> {
    restore_if_evicted(entry)?;
    let report = entry.maintainer.maintain(db)?;
    entry.pending_rows = 0;
    retain_version(entry, retain);
    Ok(report)
}

/// Recapture every sketch of `store` with fresh equi-depth partitions
/// (§7.4) — shared by [`Imp::repartition_all`] and the shard workers.
pub(crate) fn repartition_store(
    store: &mut FxHashMap<QueryTemplate, Vec<StoredSketch>>,
    db: &Database,
    config: &ImpConfig,
) -> Result<usize> {
    let templates: Vec<QueryTemplate> = store.keys().cloned().collect();
    let mut recaptured = 0usize;
    for template in templates {
        let Some(entries) = store.remove(&template) else {
            continue;
        };
        let mut rebuilt = Vec::with_capacity(entries.len());
        for old in entries {
            let Some(pset) = choose_partitions(db, config, &old.plan)? else {
                continue;
            };
            let (maintainer, _) = SketchMaintainer::capture(
                &old.plan,
                db,
                pset,
                config.op_config(),
                config.selection_pushdown,
            )?;
            recaptured += 1;
            rebuilt.push(StoredSketch {
                maintainer,
                versions: BTreeMap::new(),
                pending_rows: 0,
                evicted: None,
                ..old
            });
        }
        if !rebuilt.is_empty() {
            store.insert(template, rebuilt);
        }
    }
    Ok(recaptured)
}

/// Evict one sketch's operator state to its serialized form, returning
/// the bytes freed (0 when already evicted).
pub(crate) fn evict_stored(entry: &mut StoredSketch) -> usize {
    if entry.evicted.is_some() {
        return 0;
    }
    let freed = entry.maintainer.state_heap_size();
    entry.evicted = Some(crate::state_codec::save_state(&entry.maintainer));
    entry.maintainer.drop_state();
    freed
}

/// Build the advisor's [`SketchCard`] for one stored sketch — shared by
/// the in-line gather and the shard workers' `AdviseGather` barrier. The
/// card's `heap` prices the sketch at its *kept-maintained* footprint:
/// resident bytes plus, when evicted, the serialized state size (the
/// restore proxy).
pub(crate) fn advisor_card(template: &QueryTemplate, e: &StoredSketch) -> SketchCard {
    let resident = stored_heap_size(e);
    SketchCard {
        template: template.clone(),
        sql: e.sql.clone(),
        lifecycle: e.lifecycle,
        resident,
        heap: resident + e.evicted.as_ref().map(|b| b.len()).unwrap_or(0),
    }
}

/// Build the [`SketchSummary`] row for one stored sketch.
pub(crate) fn summarize(
    template: &QueryTemplate,
    e: &StoredSketch,
    db: &Database,
) -> SketchSummary {
    SketchSummary {
        template: template.text().to_string(),
        sql: e.sql.clone(),
        version: e.maintainer.version(),
        fragments: e.maintainer.sketch().fragment_count(),
        total_fragments: e.maintainer.partitions().total_fragments(),
        state_bytes: stored_heap_size(e),
        retained_versions: e.versions.len(),
        stale: e.maintainer.is_stale(db),
        lifecycle: e.lifecycle,
    }
}

/// Choose partition attributes per table (§7.4 heuristic: safe
/// attributes — for aggregation queries exactly the group-by columns —
/// ranked by sampled distinct count, following the cost-based insight
/// of [30] that finer-grained attributes yield more selective sketches).
pub(crate) fn choose_partitions(
    db: &Database,
    config: &ImpConfig,
    plan: &LogicalPlan,
) -> Result<Option<Arc<PartitionSet>>> {
    let safe = safety::safe_attributes(plan);
    let mut partitions = Vec::new();
    for table in plan.tables() {
        // Explicit override first.
        let chosen: Option<String> = config
            .partition_overrides
            .iter()
            .find(|(t, _)| t.eq_ignore_ascii_case(&table))
            .map(|(_, a)| a.clone())
            .or_else(|| {
                let mut candidates: Vec<&safety::SafeAttribute> =
                    safe.iter().filter(|s| s.table == table).collect();
                if candidates.len() > 1 {
                    candidates
                        .sort_by_key(|s| std::cmp::Reverse(sampled_distinct(db, &table, s.column)));
                }
                candidates.first().map(|s| s.attribute.clone())
            });
        let Some(attribute) = chosen else {
            continue; // table stays unpartitioned (whole-domain range)
        };
        let overridden = config
            .partition_overrides
            .iter()
            .any(|(t, _)| t.eq_ignore_ascii_case(&table));
        if !overridden
            || safety::is_safe(plan, &table, &attribute)
            || config.allow_unsafe_attributes
        {
            let fragments = config.fragments;
            partitions.push(RangePartition::equi_depth(
                db, &table, &attribute, fragments,
            )?);
        } else {
            return Err(CoreError::Sketch(
                imp_sketch::SketchError::UnsafeAttribute {
                    table: table.clone(),
                    attribute,
                },
            ));
        }
    }
    if partitions.is_empty() {
        return Ok(None);
    }
    Ok(Some(Arc::new(PartitionSet::new(partitions)?)))
}

/// Sampled distinct-value count of `table.column` (first few thousand
/// rows) — the ranking signal for partition-attribute choice.
fn sampled_distinct(db: &Database, table: &str, column: usize) -> usize {
    const SAMPLE: usize = 4096;
    let Ok(t) = db.table(table) else {
        return 0;
    };
    let mut seen: imp_storage::FxHashSet<imp_storage::Value> = imp_storage::FxHashSet::default();
    let mut n = 0usize;
    t.scan(
        None,
        |row| {
            if n < SAMPLE {
                seen.insert(row[column].clone());
                n += 1;
            }
        },
        |_| {},
    );
    seen.len()
}

/// Reload evicted operator state before the maintainer is used ("fetched
/// from the database" in paper §2 terms).
pub(crate) fn restore_if_evicted(entry: &mut StoredSketch) -> Result<()> {
    if let Some(bytes) = entry.evicted.take() {
        crate::state_codec::load_state(&mut entry.maintainer, bytes)?;
    }
    Ok(())
}

/// Order a capture result the way the plan's top Sort/TopK demands (the
/// incremental pipeline is order-agnostic).
fn order_result(plan: &LogicalPlan, mut rows: Bag) -> Bag {
    match plan {
        LogicalPlan::Sort { keys, .. } | LogicalPlan::TopK { keys, .. } => {
            rows.sort_by(|a, b| {
                imp_sql::plan::compare_rows(&a.0, &b.0, keys).then_with(|| a.0.cmp(&b.0))
            });
            rows
        }
        _ => rows,
    }
}

/// Reuse check: can the sketch captured for `stored` answer `new`?
///
/// Both plans share a query template (same structure modulo literals).
/// The provenance of `new` must be contained in `stored`'s sketch; we
/// accept when all literals match except in HAVING-style filters above the
/// aggregation, where the new predicate may only be *more* selective
/// (e.g. a sketch for `HAVING sum(x) > 5000` answers `HAVING sum(x) > 6000`,
/// cf. \[37\]'s reuse test).
pub fn plan_subsumes(stored: &LogicalPlan, new: &LogicalPlan) -> bool {
    match (stored, new) {
        (
            LogicalPlan::Filter {
                input: si,
                predicate: sp,
            },
            LogicalPlan::Filter {
                input: ni,
                predicate: np,
            },
        ) => {
            let above_agg = matches!(si.as_ref(), LogicalPlan::Aggregate { .. });
            let pred_ok = if above_agg {
                predicate_subsumes(sp, np)
            } else {
                sp == np
            };
            pred_ok && plan_subsumes(si, ni)
        }
        (
            LogicalPlan::Project {
                input: si,
                exprs: se,
                ..
            },
            LogicalPlan::Project {
                input: ni,
                exprs: ne,
                ..
            },
        ) => se == ne && plan_subsumes(si, ni),
        (
            LogicalPlan::Join {
                left: sl,
                right: sr,
                left_keys: slk,
                right_keys: srk,
            },
            LogicalPlan::Join {
                left: nl,
                right: nr,
                left_keys: nlk,
                right_keys: nrk,
            },
        ) => slk == nlk && srk == nrk && plan_subsumes(sl, nl) && plan_subsumes(sr, nr),
        (
            LogicalPlan::Aggregate {
                input: si,
                group_by: sg,
                aggs: sa,
                ..
            },
            LogicalPlan::Aggregate {
                input: ni,
                group_by: ng,
                aggs: na,
                ..
            },
        ) => sg == ng && sa == na && plan_subsumes(si, ni),
        (LogicalPlan::Distinct { input: si }, LogicalPlan::Distinct { input: ni }) => {
            plan_subsumes(si, ni)
        }
        (
            LogicalPlan::Sort {
                input: si,
                keys: sk,
            },
            LogicalPlan::Sort {
                input: ni,
                keys: nk,
            },
        ) => sk == nk && plan_subsumes(si, ni),
        (
            LogicalPlan::TopK {
                input: si,
                keys: sk,
                k: skk,
            },
            LogicalPlan::TopK {
                input: ni,
                keys: nk,
                k: nkk,
            },
        ) => sk == nk && skk == nkk && plan_subsumes(si, ni),
        (a, b) => a == b,
    }
}

/// Is `new` at least as selective as `stored` for every comparison?
fn predicate_subsumes(stored: &Expr, new: &Expr) -> bool {
    match (stored, new) {
        (
            Expr::Binary {
                op: sop,
                left: sl,
                right: sr,
            },
            Expr::Binary {
                op: nop,
                left: nl,
                right: nr,
            },
        ) if sop == nop => match (sop, sl.as_ref(), nl.as_ref(), sr.as_ref(), nr.as_ref()) {
            // col ⋈ literal with matching column.
            (BinOp::Gt | BinOp::Ge, Expr::Col(sc), Expr::Col(nc), Expr::Lit(sv), Expr::Lit(nv))
                if sc == nc =>
            {
                nv >= sv
            }
            (BinOp::Lt | BinOp::Le, Expr::Col(sc), Expr::Col(nc), Expr::Lit(sv), Expr::Lit(nv))
                if sc == nc =>
            {
                nv <= sv
            }
            (BinOp::And | BinOp::Or, _, _, _, _) => {
                predicate_subsumes(sl, nl) && predicate_subsumes(sr, nr)
            }
            _ => stored == new,
        },
        (a, b) => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{row, DataType, Field, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                Field::new("g", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
        )
        .unwrap();
        db.table_mut("t")
            .unwrap()
            .bulk_load((0..50).map(|i| row![i % 5, i]))
            .unwrap();
        db
    }

    fn plan(db: &Database, sql: &str) -> LogicalPlan {
        db.plan_sql(sql).unwrap()
    }

    #[test]
    fn subsumption_directions() {
        let db = db();
        let base = plan(
            &db,
            "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 100",
        );
        // More selective HAVING (larger >-threshold): reusable.
        let tighter = plan(
            &db,
            "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 200",
        );
        assert!(plan_subsumes(&base, &tighter));
        // Less selective: not reusable.
        assert!(!plan_subsumes(&tighter, &base));
        // Identical: reusable.
        assert!(plan_subsumes(&base, &base));
    }

    #[test]
    fn subsumption_requires_equal_where_constants() {
        let db = db();
        let a = plan(
            &db,
            "SELECT g, sum(v) AS s FROM t WHERE v < 40 GROUP BY g HAVING sum(v) > 10",
        );
        let b = plan(
            &db,
            "SELECT g, sum(v) AS s FROM t WHERE v < 30 GROUP BY g HAVING sum(v) > 10",
        );
        // WHERE constants differ: provenance differs in both directions.
        assert!(!plan_subsumes(&a, &b));
        assert!(!plan_subsumes(&b, &a));
    }

    #[test]
    fn subsumption_handles_less_than_direction() {
        let db = db();
        let base = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) < 100",
        );
        let tighter = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) < 50",
        );
        assert!(plan_subsumes(&base, &tighter));
        assert!(!plan_subsumes(&tighter, &base));
    }

    #[test]
    fn subsumption_of_conjunctive_windows() {
        let db = db();
        let base = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) > 10 AND avg(v) < 100",
        );
        let inside = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) > 20 AND avg(v) < 90",
        );
        let outside = plan(
            &db,
            "SELECT g, avg(v) AS a FROM t GROUP BY g HAVING avg(v) > 5 AND avg(v) < 90",
        );
        assert!(plan_subsumes(&base, &inside));
        assert!(!plan_subsumes(&base, &outside));
    }

    #[test]
    fn store_keeps_multiple_candidates_per_template() {
        let mut imp = Imp::new(
            db(),
            ImpConfig {
                fragments: 5,
                ..Default::default()
            },
        );
        // Thresholds in *decreasing* selectivity so none subsumes the next.
        for th in [400, 300, 200, 100] {
            let sql = format!("SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > {th}");
            imp.execute(&sql).unwrap();
        }
        assert_eq!(imp.sketch_count(), 4);
        // The 5th distinct capture evicts the oldest.
        imp.execute("SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 50")
            .unwrap();
        assert_eq!(imp.sketch_count(), MAX_SKETCHES_PER_TEMPLATE);
    }

    #[test]
    fn sampled_distinct_ranks_attributes() {
        let db = db();
        // g has 5 distinct values, v has 50.
        assert!(sampled_distinct(&db, "t", 1) > sampled_distinct(&db, "t", 0));
    }
}
