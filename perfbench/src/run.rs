//! The untraced closed-loop run: one client drives the stream through
//! `Imp::execute` and `Imp::maintain_all_stale`, one operation in flight
//! at a time, and the answers and final sketches are checked.

use crate::workload::{load, Kind, Sizes, Stream, Workload};
use imp_core::{Imp, ImpResponse, QueryMode, SketchStateView};
use imp_engine::{Database, ExecStats};
use imp_sketch::PartitionSet;
use imp_sql::{QueryTemplate, Statement};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Queries checked against the unfiltered (NS) answer per run.
const NS_SAMPLES: usize = 32;

/// Scheduler counter differences across the timed stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedDelta {
    /// Table-delta batches the router built.
    pub routed_batches: u64,
    /// Batches folded into an earlier one by coalescing.
    pub coalesced_batches: u64,
    /// Updates staged for asynchronous ingestion.
    pub staged_updates: u64,
    /// Updates that found the staging queue full.
    pub backpressure_stalls: u64,
    /// Maintenance runs on shard workers.
    pub maintain_runs: u64,
    /// Highest shard inbox depth seen.
    pub max_queue_depth: u64,
}

/// Fragments of the final sketches against fresh captures.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Sketches checked.
    pub sketches: usize,
    /// Fragments a fresh capture marks that the stored sketch misses.
    pub under: usize,
    /// Fragments the stored sketch marks beyond a fresh capture.
    pub over: usize,
    /// Fragments the stored sketches mark.
    pub marked: usize,
    /// Fragments of all their partition sets.
    pub total: usize,
}

/// Everything the untraced run measured and checked.
#[derive(Debug, Default)]
pub struct ImpRun {
    /// Seconds of each set-up (load + capture of every template).
    pub setup_s: Vec<f64>,
    /// `Imp` latency per operation kind, in stream order, in ms.
    pub latency_ms: BTreeMap<Kind, Vec<f64>>,
    /// Operations attempted, per kind.
    pub attempted: BTreeMap<Kind, u64>,
    /// Operations that returned `Err`.
    pub failed: u64,
    /// First few error messages.
    pub errors: Vec<String>,
    /// Summed `ExecStats` of every answered query.
    pub exec: ExecStats,
    /// Queries answered.
    pub answered: u64,
    /// Queries answered after maintaining a stale sketch.
    pub maintained: u64,
    /// Queries that captured a new sketch inside the timed stream.
    pub captured: u64,
    /// Unfiltered execution time of the sampled queries, in ms.
    pub ns_ms: Vec<f64>,
    /// Sampled answers compared with the unfiltered answer.
    pub answers_checked: usize,
    /// Sampled answers that differed.
    pub answer_mismatches: Vec<String>,
    /// Scheduler counters (sharded store only).
    pub sched: Option<SchedDelta>,
    /// `Imp::store_heap_size()` after the stream and a final drain.
    pub state_bytes: usize,
    /// `Imp::sketch_states()` after a final drain.
    pub states: Vec<SketchStateView>,
    /// The final sketches against fresh captures.
    pub coverage: Coverage,
    /// Partition set of every set-up query.
    pub psets: BTreeMap<String, Arc<PartitionSet>>,
}

impl ImpRun {
    /// Summed latency of the completed operations of `kind`, in ms.
    pub fn total_ms(&self, kind: Kind) -> f64 {
        self.latency_ms.get(&kind).map_or(0.0, |v| v.iter().sum())
    }

    /// Completed statements (queries and updates).
    pub fn statements_ok(&self) -> usize {
        [Kind::Query, Kind::Insert, Kind::Delete]
            .iter()
            .map(|k| self.latency_ms.get(k).map_or(0, Vec::len))
            .sum()
    }

    /// Summed latency of every completed operation, barriers included.
    pub fn timed_ms(&self) -> f64 {
        Kind::ALL.iter().map(|k| self.total_ms(*k)).sum()
    }

    /// The correctness checks that failed (empty when all passed).
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.answer_mismatches.clone();
        if self.coverage.under > 0 {
            out.push(format!(
                "{} fragments of fresh captures are missing from maintained sketches",
                self.coverage.under
            ));
        }
        if self.coverage.sketches == 0 {
            out.push("no stored sketch to check".into());
        }
        out
    }
}

/// Every `every`-th query is sampled for the NS check. The period is
/// coprime to 2 and 3, so streams that cycle through 2, 3 or 6 templates
/// sample each of them.
pub fn ns_every(stream: &Stream) -> usize {
    let mut every = (stream.count(Kind::Query) / NS_SAMPLES).max(1);
    while every.is_multiple_of(2) || every.is_multiple_of(3) {
        every += 1;
    }
    every
}

/// Load the data and capture the sketch of every set-up query.
pub fn setup(w: Workload, sizes: &Sizes, seed: u64, stream: &Stream) -> Result<Imp, String> {
    let db = load(w, sizes, seed).map_err(|e| format!("load: {e}"))?;
    let mut imp = Imp::new(db, w.config());
    for sql in &stream.setup {
        match imp.execute(sql) {
            Ok(ImpResponse::Rows {
                mode: QueryMode::Captured,
                ..
            }) => {}
            Ok(other) => return Err(format!("set-up did not capture {sql}: {other:?}")),
            Err(e) => return Err(format!("set-up query {sql}: {e}")),
        }
    }
    Ok(imp)
}

/// The partition set of every set-up query, read back from the store.
/// Set-up captures every sketch on the same database state, so sketches
/// of one template share their template's first entry's partitions.
pub fn partition_sets(
    imp: &Imp,
    stream: &Stream,
) -> Result<BTreeMap<String, Arc<PartitionSet>>, String> {
    let mut out = BTreeMap::new();
    if let Some(sched) = imp.scheduler() {
        let board = sched.board_handle();
        for shard in 0..board.shards() {
            for p in &board.read(shard).sketches {
                out.insert(p.sql.to_string(), Arc::clone(p.sketch.partitions()));
            }
        }
        return Ok(out);
    }
    for sql in &stream.setup {
        let Ok(Statement::Select(select)) = imp_sql::parse_one(sql) else {
            return Err(format!("set-up query is not a SELECT: {sql}"));
        };
        let entry = imp
            .sketch_entry(&QueryTemplate::of(&select))
            .ok_or_else(|| format!("no stored sketch for {sql}"))?;
        out.insert(sql.clone(), Arc::clone(entry.maintainer.partitions()));
    }
    Ok(out)
}

/// Compare each final sketch with a fresh capture on its partition set
/// (Theorem 6.1: the maintained sketch must contain the accurate one).
pub fn check_coverage(
    db: &Database,
    states: &[SketchStateView],
    psets: &BTreeMap<String, Arc<PartitionSet>>,
) -> Result<Coverage, String> {
    let mut cov = Coverage::default();
    for s in states {
        let pset = psets
            .get(&s.sql)
            .ok_or_else(|| format!("no partition set recorded for {}", s.sql))?;
        let plan = db.plan_sql(&s.sql).map_err(|e| e.to_string())?;
        let fresh = imp_sketch::capture(&plan, db, pset).map_err(|e| e.to_string())?;
        let fresh = fresh.sketch.bits();
        if fresh.len() != s.bits.len() {
            return Err(format!("partition set mismatch for {}", s.sql));
        }
        cov.sketches += 1;
        cov.under += fresh.iter_ones().filter(|&f| !s.bits.get(f)).count();
        cov.over += s.bits.iter_ones().filter(|&f| !fresh.get(f)).count();
        cov.marked += s.bits.count_ones();
        cov.total += s.bits.len();
    }
    Ok(cov)
}

/// Set up `SETUP_REPS` times, keep the last, run the stream, check.
pub fn run_imp(w: Workload, sizes: &Sizes, seed: u64, stream: &Stream) -> Result<ImpRun, String> {
    let mut run = ImpRun::default();
    let mut imp = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous instance (and join its workers) first, so
        // set-ups do not overlap.
        drop(imp.take());
        let start = Instant::now();
        let built = setup(w, sizes, seed, stream)?;
        run.setup_s.push(start.elapsed().as_secs_f64());
        imp = Some(built);
    }
    let mut imp = imp.expect("SETUP_REPS > 0");
    run.psets = partition_sets(&imp, stream)?;
    let sched_before = imp.scheduler().map(|s| s.stats());
    let ns_every = ns_every(stream);
    let mut query_no = 0usize;

    for op in &stream.ops {
        if op.kind == Kind::Vacuum {
            imp.vacuum();
            continue;
        }
        *run.attempted.entry(op.kind).or_insert(0) += 1;
        let sampled = op.kind == Kind::Query && query_no.is_multiple_of(ns_every);
        query_no += usize::from(op.kind == Kind::Query);
        let start = Instant::now();
        let outcome = if op.kind == Kind::Drain {
            imp.maintain_all_stale().map(|_| Drained)
        } else {
            imp.execute(&op.sql).map(Executed)
        };
        let ms = start.elapsed().as_nanos() as f64 / 1e6;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                run.failed += 1;
                if run.errors.len() < 5 {
                    run.errors.push(format!("{}: {e}", op.kind.label()));
                }
                continue;
            }
        };
        run.latency_ms.entry(op.kind).or_default().push(ms);
        match outcome {
            Drained | Executed(ImpResponse::Affected { .. }) => {}
            Executed(ImpResponse::Rows { result, mode }) => {
                run.answered += 1;
                run.exec.absorb(&result.stats);
                match &mode {
                    QueryMode::Maintained(_) => run.maintained += 1,
                    QueryMode::Captured => run.captured += 1,
                    QueryMode::NoSketch | QueryMode::UsedFresh => {}
                }
                if sampled {
                    // Outside the timed interval: the NS baseline on the
                    // same state, and the answer check against it.
                    let db = imp.db();
                    let plan = db.plan_sql(&op.sql).map_err(|e| e.to_string())?;
                    let start = Instant::now();
                    let ns = db.execute_plan(&plan).map_err(|e| e.to_string())?;
                    run.ns_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
                    run.answers_checked += 1;
                    if ns.canonical() != result.canonical() {
                        run.answer_mismatches.push(format!(
                            "query #{} answer differs from the unfiltered answer: {}",
                            query_no - 1,
                            op.sql
                        ));
                    }
                }
            }
            Executed(other) => return Err(format!("unexpected response {other:?}")),
        }
    }

    if let (Some(before), Some(sched)) = (sched_before, imp.scheduler()) {
        let after = sched.stats();
        run.sched = Some(SchedDelta {
            routed_batches: after.routed_batches - before.routed_batches,
            coalesced_batches: after.coalesced_batches - before.coalesced_batches,
            staged_updates: after.staged_updates - before.staged_updates,
            backpressure_stalls: after.backpressure_stalls - before.backpressure_stalls,
            maintain_runs: after.maintain_runs - before.maintain_runs,
            max_queue_depth: after
                .per_shard
                .iter()
                .map(|s| s.max_depth)
                .max()
                .unwrap_or(0),
        });
    }
    imp.maintain_all_stale()
        .map_err(|e| format!("final drain: {e}"))?;
    run.state_bytes = imp.store_heap_size();
    run.states = imp.sketch_states();
    run.coverage = check_coverage(&imp.db(), &run.states, &run.psets)?;
    Ok(run)
}

/// What one timed call returned.
enum Outcome {
    Drained,
    Executed(ImpResponse),
}
use Outcome::{Drained, Executed};
