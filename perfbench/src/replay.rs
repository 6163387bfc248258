//! The traced layer replay. It reissues the stream on a fresh copy of the
//! data through the public calls the middleware makes, with a span around
//! each call:
//!
//! * query — `imp_sql::parse_one`, `QueryTemplate::of`,
//!   `Resolver::resolve_select`, the stored-sketch lookup
//!   (`plan_subsumes`), `SketchMaintainer::{is_stale, maintain}`,
//!   `apply_sketch_filter`, `Database::execute_plan`;
//! * update — `parse_one`, `Database::execute_statement`, then under an
//!   eager strategy `maintain` for each affected sketch;
//! * drain — `is_stale` and `maintain` for every stored sketch.
//!
//! Sketches use the partition sets of the `Imp` run, so the replay's
//! final sketches must be bit-identical to `Imp::sketch_states()`. The
//! sharded workload replays in-line and lazily: its layer times describe
//! the same calls without the scheduler.

use crate::run::ns_every;
use crate::trace::Tracer;
use crate::workload::{load, Kind, Sizes, Stream, Workload};
use imp_core::middleware::plan_subsumes;
use imp_core::ops::OpConfig;
use imp_core::{MaintMetrics, MaintReport, MaintenanceStrategy, SketchMaintainer, SketchStateView};
use imp_engine::update::StatementResult;
use imp_engine::Database;
use imp_sketch::{apply_sketch_filter, PartitionSet};
use imp_sql::{LogicalPlan, QueryTemplate, Resolver, Statement};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Summed counters of maintenance reports.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MaintTotals {
    /// Maintenance runs.
    pub runs: u64,
    /// Runs that fell back to a full recapture.
    pub recaptured: u64,
    /// Summed per-run counters.
    pub metrics: MaintMetrics,
    /// Summed n-ary join probes over all inputs.
    pub nary_probes: u64,
}

impl MaintTotals {
    fn add(&mut self, report: &MaintReport) {
        self.runs += 1;
        self.recaptured += u64::from(report.recaptured);
        self.metrics.absorb(&report.metrics);
        self.nary_probes += report.nary_input_probes.iter().sum::<u64>();
    }
}

/// One stored sketch of the replay.
struct Entry {
    sql: String,
    plan: LogicalPlan,
    maintainer: SketchMaintainer,
    pending: u64,
}

/// What the replay recorded.
pub struct Replay {
    /// Every span.
    pub tracer: Tracer,
    /// Capture time of each set-up sketch, in ms (the FM cost of one
    /// full maintenance).
    pub capture_ms: Vec<f64>,
    /// Final sketches, sorted like `Imp::sketch_states()`.
    pub states: Vec<SketchStateView>,
    /// Calls that returned `Err`.
    pub errors: Vec<String>,
    /// Operator-state bytes of every maintainer after the final drain.
    pub state_bytes: usize,
    /// Reports of every maintenance run inside the stream.
    pub maint: MaintTotals,
}

impl Replay {
    /// Summed duration of the operation roots of `kind`, and of the layer
    /// calls inside them, in ms.
    pub fn op_and_layer_ms(&self, stream: &Stream, kind: Kind) -> (f64, f64) {
        let self_ns = self.tracer.self_times();
        let (mut op, mut layer) = (0u64, 0u64);
        for (i, s) in self.tracer.spans().iter().enumerate() {
            if s.layer() == "op" && stream.ops[s.op as usize].kind == kind {
                op += s.ns();
                layer += s.ns() - self_ns[i];
            }
        }
        (op as f64 / 1e6, layer as f64 / 1e6)
    }
}

fn op_config(w: Workload) -> OpConfig {
    let c = w.config();
    OpConfig {
        bloom: c.bloom,
        minmax_buffer: c.minmax_buffer,
        topk_buffer: c.topk_buffer,
        join_index_budget: c.join_index_budget,
        nary_join: c.nary_join,
        columnar_min: c.columnar_min,
    }
}

fn select_of(sql: &str) -> Result<imp_sql::SelectStmt, String> {
    match imp_sql::parse_one(sql) {
        Ok(Statement::Select(select)) => Ok(select),
        Ok(_) => Err(format!("not a SELECT: {sql}")),
        Err(e) => Err(format!("{sql}: {e}")),
    }
}

/// Run the replay.
pub fn replay(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    stream: &Stream,
    psets: &BTreeMap<String, Arc<PartitionSet>>,
) -> Result<Replay, String> {
    let config = w.config();
    let eager = match config.strategy {
        MaintenanceStrategy::Eager { batch_size } if config.sched_workers == 0 => {
            Some(batch_size as u64)
        }
        _ => None,
    };
    let mut db = load(w, sizes, seed).map_err(|e| format!("load: {e}"))?;
    let mut store: BTreeMap<String, Vec<Entry>> = BTreeMap::new();
    let mut capture_ms = Vec::new();
    for sql in &stream.setup {
        let select = select_of(sql)?;
        let plan = Resolver::new(&db)
            .resolve_select(&select)
            .map_err(|e| e.to_string())?;
        let pset = psets
            .get(sql)
            .ok_or_else(|| format!("no partition set for {sql}"))?;
        let start = Instant::now();
        let (maintainer, _) = SketchMaintainer::capture(
            &plan,
            &db,
            Arc::clone(pset),
            op_config(w),
            config.selection_pushdown,
        )
        .map_err(|e| e.to_string())?;
        capture_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
        store
            .entry(QueryTemplate::of(&select).text().to_string())
            .or_default()
            .push(Entry {
                sql: sql.clone(),
                plan,
                maintainer,
                pending: 0,
            });
    }

    let mut tr = Tracer::with_capacity(stream.ops.len() * 10 + 16);
    let mut errors = Vec::new();
    let mut maint = MaintTotals::default();
    let ns_every = ns_every(stream);
    let mut query_no = 0usize;
    for (i, op) in stream.ops.iter().enumerate() {
        tr.set_op(i);
        let result = match op.kind {
            Kind::Query => {
                let root = tr.begin("op.query");
                let out = replay_query(&mut tr, &mut maint, &db, &mut store, &op.sql);
                tr.end(root);
                if query_no.is_multiple_of(ns_every) {
                    if let Ok(plan) = db.plan_sql(&op.sql) {
                        let _ = tr.time("engine.ns_scan", || db.execute_plan(&plan));
                    }
                }
                query_no += 1;
                out
            }
            Kind::Insert | Kind::Delete => {
                let root = tr.begin(if op.kind == Kind::Insert {
                    "op.insert"
                } else {
                    "op.delete"
                });
                let out = replay_update(&mut tr, &mut maint, &mut db, &mut store, &op.sql, eager);
                tr.end(root);
                out
            }
            Kind::Drain => {
                let root = tr.begin("op.drain");
                let out = drain(&mut tr, &mut maint, &db, &mut store);
                tr.end(root);
                out
            }
            Kind::Vacuum => {
                vacuum(&mut db, &store);
                Ok(())
            }
        };
        if let Err(e) = result {
            errors.push(format!("op #{i} ({}): {e}", op.kind.label()));
        }
    }

    // The final drain is outside the stream: its spans and reports are
    // discarded.
    let mut untraced = Tracer::with_capacity(store.values().map(Vec::len).sum::<usize>() * 2);
    drain(&mut untraced, &mut MaintTotals::default(), &db, &mut store)?;
    let mut states: Vec<SketchStateView> = store
        .iter()
        .flat_map(|(template, entries)| {
            entries.iter().map(|e| SketchStateView {
                template: template.clone(),
                sql: e.sql.clone(),
                version: e.maintainer.version(),
                bits: e.maintainer.sketch().bits().clone(),
            })
        })
        .collect();
    states.sort();
    let state_bytes = store
        .values()
        .flatten()
        .map(|e| e.maintainer.state_heap_size())
        .sum();
    Ok(Replay {
        tracer: tr,
        capture_ms,
        states,
        errors,
        state_bytes,
        maint,
    })
}

fn replay_query(
    tr: &mut Tracer,
    maint: &mut MaintTotals,
    db: &Database,
    store: &mut BTreeMap<String, Vec<Entry>>,
    sql: &str,
) -> Result<(), String> {
    let stmt = tr.time("sql.parse", || imp_sql::parse_one(sql));
    let Ok(Statement::Select(select)) = stmt else {
        return Err(format!("not a SELECT: {sql}"));
    };
    let template = tr.time("sql.template", || QueryTemplate::of(&select));
    let plan = tr
        .time("sql.resolve", || Resolver::new(db).resolve_select(&select))
        .map_err(|e| e.to_string())?;
    let entry = tr.time("middleware.lookup", || {
        store
            .get_mut(template.text())
            .and_then(|entries| entries.iter_mut().find(|e| plan_subsumes(&e.plan, &plan)))
    });
    let entry = entry.ok_or_else(|| format!("no stored sketch answers {sql}"))?;
    if tr.time("maintain.is_stale", || entry.maintainer.is_stale(db)) {
        let report = tr
            .time("maintain.run", || entry.maintainer.maintain(db))
            .map_err(|e| e.to_string())?;
        maint.add(&report);
        entry.pending = 0;
    }
    let rewritten = tr
        .time("sketch.rewrite", || {
            apply_sketch_filter(&plan, entry.maintainer.sketch())
        })
        .map_err(|e| e.to_string())?;
    tr.time("engine.scan", || db.execute_plan(&rewritten))
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn replay_update(
    tr: &mut Tracer,
    maint: &mut MaintTotals,
    db: &mut Database,
    store: &mut BTreeMap<String, Vec<Entry>>,
    sql: &str,
    eager: Option<u64>,
) -> Result<(), String> {
    let stmt = tr
        .time("sql.parse", || imp_sql::parse_one(sql))
        .map_err(|e| e.to_string())?;
    let result = tr
        .time("engine.apply", || db.execute_statement(&stmt))
        .map_err(|e| e.to_string())?;
    let (StatementResult::Affected { table, count, .. }, Some(batch)) = (result, eager) else {
        return Ok(());
    };
    for entry in store.values_mut().flatten() {
        if entry.maintainer.tables().contains(&table) {
            entry.pending += count;
            if entry.pending >= batch {
                let report = tr
                    .time("maintain.run", || entry.maintainer.maintain(db))
                    .map_err(|e| e.to_string())?;
                maint.add(&report);
                entry.pending = 0;
            }
        }
    }
    Ok(())
}

/// `Imp::vacuum()` on the replay's store: each table keeps the delta-log
/// records after the oldest version a sketch reading it was maintained to.
fn vacuum(db: &mut Database, store: &BTreeMap<String, Vec<Entry>>) {
    let mut horizons: BTreeMap<&str, u64> = BTreeMap::new();
    for e in store.values().flatten() {
        for table in e.maintainer.tables() {
            let v = horizons
                .entry(table.as_str())
                .or_insert_with(|| e.maintainer.version());
            *v = (*v).min(e.maintainer.version());
        }
    }
    let everything = db.version();
    db.vacuum_by(|table| horizons.get(table).copied().unwrap_or(everything));
}

fn drain(
    tr: &mut Tracer,
    maint: &mut MaintTotals,
    db: &Database,
    store: &mut BTreeMap<String, Vec<Entry>>,
) -> Result<(), String> {
    for entry in store.values_mut().flatten() {
        if tr.time("maintain.is_stale", || entry.maintainer.is_stale(db)) {
            let report = tr
                .time("maintain.run", || entry.maintainer.maintain(db))
                .map_err(|e| e.to_string())?;
            maint.add(&report);
            entry.pending = 0;
        }
    }
    Ok(())
}
