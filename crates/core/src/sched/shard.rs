//! Shard workers: each serves one shard's control channel and claims
//! maintenance work from the shared inboxes.
//!
//! A worker's loop alternates between three duties:
//!
//! 1. **Controls** — messages on its own channel (add/maintain/inspect/
//!    pause/…). Every control is a barrier: the worker first drains the
//!    async-ingest staging queue and flushes its own inbox, then runs the
//!    control against the settled store.
//! 2. **Own work** — claim a coalesced whole-batch prefix of its own
//!    inbox (see `crate::sched::steal`) and run one maintenance pass
//!    over it. Routed batches gathered for the same table **coalesce**
//!    into one run per sketch (the paper's batched-eager maintenance,
//!    applied per shard), bounded by
//!    [`crate::middleware::ImpConfig::coalesce_budget`].
//! 3. **Stealing** — when its own inbox is empty and
//!    [`crate::middleware::ImpConfig::work_stealing`] is on, claim from
//!    another shard's inbox. The victim's state lock serializes the
//!    claim against its owner, so stolen batches are processed with the
//!    victim's own sketch state, in the victim's inbox order —
//!    byte-identical to the owner doing the work itself.
//!
//! When nothing is queued anywhere the worker blocks on its channel with
//! a short timeout (`IDLE_WAIT`) — wake nudges make routed work prompt,
//! the timeout is only the safety net for lost nudges.
//!
//! Workers never take the middleware lock — they share the database via
//! `Arc<RwLock<Database>>` read guards and publish results as immutable
//! snapshots (see [`crate::sched::snapshot`]).

use crate::advisor::{
    AdviseAction, ApplyOutcome, Lifecycle, SketchCard, SketchKey, WorkloadTracker,
};
use crate::maintain::MaintReport;
use crate::metrics::SchedMetrics;
use crate::middleware::{
    restore_if_evicted, retain_version, stored_heap_size, summarize, ImpConfig, PublishedMeta,
    SketchStateView, SketchSummary, StoredSketch, MAX_SKETCHES_PER_TEMPLATE,
};
use crate::obs::{trace, Obs, ObsEvent};
use crate::sched::snapshot::{PublishedSketch, SnapshotBoard};
use crate::sched::steal::{SchedShared, ShardState};
use crate::Result;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use imp_engine::Database;
use imp_sketch::SketchSet;
use imp_sql::{LogicalPlan, QueryTemplate};
use imp_storage::FxHashMap;
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;

/// Idle block on the control channel: the safety net behind wake nudges.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// Reply to an on-demand maintenance request: the report plus the fresh
/// sketch (cloned bits — the worker keeps the live one).
#[derive(Debug)]
pub struct MaintainReply {
    /// The maintenance report (for [`crate::middleware::QueryMode::Maintained`]).
    pub report: Box<MaintReport>,
    /// The maintained sketch.
    pub sketch: SketchSet,
}

/// Synchronous snapshot of one shard's store (inspection barriers).
#[derive(Debug)]
pub struct ShardReport {
    /// Per-sketch summaries (unsorted).
    pub summaries: Vec<SketchSummary>,
    /// Comparable sketch states (unsorted).
    pub states: Vec<SketchStateView>,
    /// Total heap bytes of the shard's sketch state.
    pub heap: usize,
    /// Minimum maintained version across the shard's sketches.
    pub min_version: Option<u64>,
    /// Per table, the minimum maintained version across the shard's
    /// sketches referencing it (the table's vacuum horizon).
    pub table_versions: Vec<(String, u64)>,
    /// Number of stored sketches.
    pub count: usize,
    /// Last maintenance error, if any — sticky: it stays reported until a
    /// newer error supersedes it, so unrelated admin inspections cannot
    /// swallow the only record of an async routed-maintenance failure.
    pub last_error: Option<String>,
}

/// Messages a shard worker understands. Routed deltas do **not** travel
/// here — they go through the shared inboxes (`crate::sched::steal`);
/// the channel carries controls and edge-triggered wake nudges only.
pub(crate) enum ShardMsg {
    /// Nudge: queued work may exist (staged ingest or a routed batch).
    Wake,
    /// Take ownership of a freshly captured sketch.
    AddSketch {
        /// Store key.
        template: QueryTemplate,
        /// The sketch (boxed: large).
        sketch: Box<StoredSketch>,
        /// Ack once stored and published.
        reply: Sender<()>,
    },
    /// Bring the subsuming candidate of `template`/`plan` fully current.
    MaintainSketch {
        /// Store key.
        template: QueryTemplate,
        /// The querying plan (subsumption check).
        plan: Box<LogicalPlan>,
        /// `Ok(None)` when no candidate subsumes the plan anymore; a
        /// maintenance failure propagates to the requesting caller.
        reply: Sender<Result<Option<MaintainReply>>>,
    },
    /// Maintain every stale sketch; reply with the reports when asked.
    MaintainStale {
        /// `None` = fire-and-forget kick (background ticks). The reply
        /// carries the successful reports plus the first error, if any.
        reply: Option<Sender<(Vec<MaintReport>, Option<crate::CoreError>)>>,
    },
    /// Report the shard's store state.
    Inspect {
        /// Reply channel.
        reply: Sender<ShardReport>,
    },
    /// Evict operator state to serialized form; reply = bytes freed.
    Evict {
        /// `None` = every sketch of the shard; `Some` = only that
        /// template's candidates ([`crate::middleware::Imp::evict_state`]).
        template: Option<QueryTemplate>,
        /// Reply channel.
        reply: Sender<usize>,
    },
    /// Flush every sketch's annotation-pool / row-interner caches; reply
    /// = sketches flushed.
    FlushPools {
        /// Reply channel.
        reply: Sender<usize>,
    },
    /// Report the advisor's view of the shard's sketches.
    AdviseGather {
        /// Reply channel.
        reply: Sender<Vec<SketchCard>>,
    },
    /// Apply one planned advisor round to the shard's sketches.
    AdviseApply {
        /// Actions addressed to this shard's templates.
        actions: Vec<AdviseAction>,
        /// Lifecycle transitions applied (promotion maintenance errors
        /// propagate to the advising caller).
        reply: Sender<Result<ApplyOutcome>>,
    },
    /// Recapture everything with fresh equi-depth partitions.
    Repartition {
        /// Reply = sketches recaptured.
        reply: Sender<usize>,
    },
    /// Barrier: every earlier message has been fully processed.
    Drain {
        /// Reply channel.
        reply: Sender<()>,
    },
    /// Park the worker until `resume` yields (or its sender drops).
    Pause {
        /// Acked once parked.
        ack: Sender<()>,
        /// Unparks the worker.
        resume: Receiver<()>,
    },
    /// Exit the worker loop.
    Stop,
}

/// One shard worker (runs on its own thread, serves shard `id`).
pub(crate) struct ShardWorker {
    id: usize,
    db: Arc<RwLock<Database>>,
    rx: Receiver<ShardMsg>,
    config: ImpConfig,
    board: Arc<SnapshotBoard>,
    metrics: Arc<SchedMetrics>,
    shared: Arc<SchedShared>,
    /// Shared workload tracker (maintenance costs recorded worker-side).
    tracker: Arc<WorkloadTracker>,
    /// Observability hub (spans, latency histograms, probe events).
    obs: Arc<Obs>,
}

impl ShardWorker {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        db: Arc<RwLock<Database>>,
        rx: Receiver<ShardMsg>,
        config: ImpConfig,
        board: Arc<SnapshotBoard>,
        metrics: Arc<SchedMetrics>,
        shared: Arc<SchedShared>,
        tracker: Arc<WorkloadTracker>,
        obs: Arc<Obs>,
    ) -> ShardWorker {
        ShardWorker {
            id,
            db,
            rx,
            config,
            board,
            metrics,
            shared,
            tracker,
            obs,
        }
    }

    /// The worker loop: controls → own claims → steals → idle block.
    pub(crate) fn run(mut self) {
        loop {
            // Liveness heartbeat: the health watchdogs compare this gauge
            // across ticks — frozen while the inbox is non-empty means
            // this worker is wedged.
            self.metrics.beat(self.id);
            // Handle every control already queued (each is a barrier).
            let mut stop = false;
            while let Ok(msg) = self.rx.try_recv() {
                if self.handle(msg) {
                    stop = true;
                    break;
                }
            }
            if stop {
                // Best-effort parity with the channel-delivered era: work
                // queued before Stop is flushed before the thread exits.
                while self.work_on(self.id, false) {}
                break;
            }
            // One unit of maintenance work, own shard first.
            if self.work_once() {
                continue;
            }
            // Idle: block until a nudge/control or the safety net fires.
            match self.rx.recv_timeout(IDLE_WAIT) {
                Ok(msg) => {
                    if self.handle(msg) {
                        while self.work_on(self.id, false) {}
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Dispatch one message; `true` = stop. Controls run behind a
    /// barrier flush (staged ingest + own inbox), mirroring the PR 4
    /// rule that a control observes the settled store.
    fn handle(&mut self, msg: ShardMsg) -> bool {
        match msg {
            ShardMsg::Wake => false,
            ShardMsg::Stop => true,
            control => {
                self.barrier_flush();
                self.handle_control(control);
                false
            }
        }
    }

    /// Flush everything routed (or staged) before a control was sent:
    /// drain the staging queue, then claim from this shard's own inbox
    /// until it is empty. "Inbox empty" is checked after the staging
    /// drain's pushes have all landed (one router hold). A thief pops
    /// batches only while holding this shard's state lock and keeps it
    /// until its run is published, so an empty inbox can still hide a
    /// stolen claim in flight: taking the state lock once at the end
    /// waits that claim out, and the control observes the settled store.
    fn barrier_flush(&self) {
        self.shared.ingest(&self.db, None);
        while self.work_on(self.id, false) {}
        drop(self.shared.slots[self.id].state.lock());
    }

    /// One unit of work: staged ingest, then a claim from the own inbox,
    /// then (with stealing on) a claim from another shard — preferring
    /// the victim with the deepest inbox backlog (the queue-depth gauges
    /// of [`crate::SchedMetrics`]), falling back to a round-robin sweep
    /// when the gauge read was stale or every gauge is zero. Returns
    /// `false` when there was nothing to do anywhere.
    fn work_once(&mut self) -> bool {
        if !self.shared.staging_is_empty() {
            self.shared.ingest(&self.db, None);
        }
        if self.work_on(self.id, false) {
            return true;
        }
        if self.config.work_stealing {
            if let Some(victim) = self.metrics.deepest_backlog(self.id) {
                if self.work_on(victim, true) {
                    return true;
                }
            }
            let shards = self.shared.slots.len();
            for offset in 1..shards {
                let victim = (self.id + offset) % shards;
                if self.work_on(victim, true) {
                    return true;
                }
            }
        }
        false
    }

    /// Claim and process one coalesced batch group from `shard`'s inbox.
    /// Blocks on the shard's state lock: under contention the lock
    /// serializes claims, so owner and thieves interleave whole claims
    /// in inbox order. Returns `false` when the inbox was empty.
    fn work_on(&self, shard: usize, stolen: bool) -> bool {
        if !self.shared.has_work(shard) {
            return false;
        }
        let _span = self.obs.span("shard_claim");
        let slot = &self.shared.slots[shard];
        let mut state = slot.state.lock();
        let Some(claim) = self.shared.claim(shard, self.config.coalesce_budget) else {
            return false; // someone else claimed it first
        };
        if stolen {
            self.metrics.stole_from(shard, claim.batches);
        }
        self.obs.flight().record(if stolen {
            crate::obs::FlightEvent::Stolen {
                shard: shard as u64,
                worker: self.id as u64,
                batches: claim.batches,
            }
        } else {
            crate::obs::FlightEvent::Claimed {
                shard: shard as u64,
                worker: self.id as u64,
                batches: claim.batches,
            }
        });
        self.obs.emit(|| ObsEvent::ShardClaim {
            shard,
            worker: self.id,
            stolen,
            batches: claim.batches,
        });
        {
            let db = self.db.read();
            run_claim(
                &mut state,
                &claim.routed,
                &db,
                &self.config,
                &self.metrics,
                &self.tracker,
                &self.obs,
            );
        }
        publish(shard, &mut state, &self.board, &self.obs);
        true
    }

    fn handle_control(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Wake | ShardMsg::Stop => unreachable!("not a control message"),
            ShardMsg::AddSketch {
                template,
                sketch,
                reply,
            } => {
                let mut state = self.shared.slots[self.id].state.lock();
                if let Some(entries) = state.store.get_mut(&template) {
                    if entries.len() >= MAX_SKETCHES_PER_TEMPLATE {
                        let old = entries.remove(0); // evict the oldest candidate
                        self.tracker
                            .forget(&SketchKey::new(template.text(), old.sql));
                    }
                }
                state.store.entry(template).or_default().push(*sketch);
                publish(self.id, &mut state, &self.board, &self.obs);
                let _ = reply.send(());
            }
            ShardMsg::MaintainSketch {
                template,
                plan,
                reply,
            } => {
                let mut state = self.shared.slots[self.id].state.lock();
                let result = self.maintain_one(&mut state, &template, &plan);
                if matches!(result, Ok(Some(_))) {
                    publish(self.id, &mut state, &self.board, &self.obs);
                }
                let _ = reply.send(result);
            }
            ShardMsg::MaintainStale { reply } => {
                let mut state = self.shared.slots[self.id].state.lock();
                let (reports, error) = self.maintain_stale(&mut state);
                if !reports.is_empty() {
                    publish(self.id, &mut state, &self.board, &self.obs);
                }
                match reply {
                    Some(reply) => {
                        let _ = reply.send((reports, error));
                    }
                    None => {
                        // Fire-and-forget kick: surface the error through
                        // the next inspection instead.
                        if let Some(e) = error {
                            state.last_error = Some(e.to_string());
                        }
                    }
                }
            }
            ShardMsg::Inspect { reply } => {
                let mut state = self.shared.slots[self.id].state.lock();
                let _ = reply.send(self.inspect(&mut state));
            }
            ShardMsg::Evict { template, reply } => {
                let mut state = self.shared.slots[self.id].state.lock();
                let mut freed = 0usize;
                let targeted: Box<dyn Iterator<Item = &mut StoredSketch>> = match &template {
                    Some(t) => match state.store.get_mut(t) {
                        Some(entries) => Box::new(entries.iter_mut()),
                        None => Box::new(std::iter::empty()),
                    },
                    None => Box::new(state.store.values_mut().flatten()),
                };
                for entry in targeted {
                    freed += crate::middleware::evict_stored(entry);
                }
                let _ = reply.send(freed);
            }
            ShardMsg::FlushPools { reply } => {
                let mut state = self.shared.slots[self.id].state.lock();
                let mut flushed = 0usize;
                for entry in state.store.values_mut().flatten() {
                    entry.maintainer.flush_pool_caches();
                    flushed += 1;
                }
                let _ = reply.send(flushed);
            }
            ShardMsg::AdviseGather { reply } => {
                let state = self.shared.slots[self.id].state.lock();
                let cards = state
                    .store
                    .iter()
                    .flat_map(|(template, entries)| {
                        entries
                            .iter()
                            .map(|e| crate::middleware::advisor_card(template, e))
                    })
                    .collect();
                let _ = reply.send(cards);
            }
            ShardMsg::AdviseApply { actions, reply } => {
                let mut state = self.shared.slots[self.id].state.lock();
                let result = {
                    let db = self.db.read();
                    crate::advisor::autopilot::apply_to_store(
                        &mut state.store,
                        &db,
                        &self.config,
                        &self.tracker,
                        &actions,
                    )
                };
                // Drops and promotions change published counts/bits.
                publish(self.id, &mut state, &self.board, &self.obs);
                let _ = reply.send(result);
            }
            ShardMsg::Repartition { reply } => {
                let mut state = self.shared.slots[self.id].state.lock();
                let _ = reply.send(self.repartition(&mut state));
            }
            ShardMsg::Drain { reply } => {
                let _ = reply.send(());
            }
            ShardMsg::Pause { ack, resume } => {
                let _ = ack.send(());
                let _ = resume.recv(); // parked until resumed (or dropped)
            }
        }
    }

    /// Bring the subsuming candidate current via the direct fetching path
    /// (any still-queued routed batches become version-filtered no-ops).
    /// `Ok(None)` = no candidate subsumes the plan; errors propagate to
    /// the requesting caller, mirroring the in-line backend.
    fn maintain_one(
        &self,
        state: &mut ShardState,
        template: &QueryTemplate,
        plan: &LogicalPlan,
    ) -> Result<Option<MaintainReply>> {
        let Some(entries) = state.store.get_mut(template) else {
            return Ok(None);
        };
        let Some(entry) = entries
            .iter_mut()
            .find(|e| crate::middleware::plan_subsumes(&e.plan, plan))
        else {
            return Ok(None);
        };
        let db = self.db.read();
        let _span = self.obs.span("maintain_on_demand");
        let from_version = entry.maintainer.version();
        let report =
            crate::middleware::maintain_entry(entry, &db, self.config.retain_sketch_versions)?;
        self.metrics.maintain_runs.inc();
        self.obs.maintain_observed_spanned(
            template.text(),
            report.duration.as_nanos() as u64,
            report.advisor_cost().delta_rows,
            report.recaptured,
            from_version,
            entry.maintainer.version(),
        );
        self.tracker.record_maintenance(
            SketchKey::new(template.text(), entry.sql.clone()),
            report.advisor_cost(),
        );
        Ok(Some(MaintainReply {
            report: Box::new(report),
            sketch: entry.maintainer.sketch().clone(),
        }))
    }

    /// Maintain every stale [`Lifecycle::Maintained`] sketch (demoted
    /// ones wait for an on-demand query), continuing past failures (other
    /// shards keep working either way); the first error rides along.
    fn maintain_stale(
        &self,
        state: &mut ShardState,
    ) -> (Vec<MaintReport>, Option<crate::CoreError>) {
        let db = self.db.read();
        let mut reports = Vec::new();
        let mut first_error = None;
        for (template, entries) in state.store.iter_mut() {
            for entry in entries.iter_mut() {
                if entry.lifecycle != Lifecycle::Maintained || !entry.maintainer.is_stale(&db) {
                    continue;
                }
                let _span = self.obs.span("maintain_stale");
                let from_version = entry.maintainer.version();
                match crate::middleware::maintain_entry(
                    entry,
                    &db,
                    self.config.retain_sketch_versions,
                ) {
                    Ok(report) => {
                        self.metrics.maintain_runs.inc();
                        self.obs.maintain_observed_spanned(
                            template.text(),
                            report.duration.as_nanos() as u64,
                            report.advisor_cost().delta_rows,
                            report.recaptured,
                            from_version,
                            entry.maintainer.version(),
                        );
                        self.tracker.record_maintenance(
                            SketchKey::new(template.text(), entry.sql.clone()),
                            report.advisor_cost(),
                        );
                        reports.push(report);
                    }
                    Err(e) => {
                        if first_error.is_none() {
                            first_error = Some(e);
                        } else {
                            state.last_error = Some(e.to_string());
                        }
                    }
                }
            }
        }
        (reports, first_error)
    }

    fn inspect(&self, state: &mut ShardState) -> ShardReport {
        let db = self.db.read();
        let mut summaries = Vec::new();
        let mut states = Vec::new();
        let mut heap = 0usize;
        let mut min_version: Option<u64> = None;
        let mut table_versions: FxHashMap<String, u64> = FxHashMap::default();
        let mut count = 0usize;
        for (template, entries) in &state.store {
            for e in entries {
                summaries.push(summarize(template, e, &db));
                states.push(SketchStateView {
                    template: template.text().to_string(),
                    sql: e.sql.clone(),
                    version: e.maintainer.version(),
                    bits: e.maintainer.sketch().bits().clone(),
                });
                heap += stored_heap_size(e);
                min_version = Some(
                    min_version.map_or(e.maintainer.version(), |m| m.min(e.maintainer.version())),
                );
                for table in e.maintainer.tables() {
                    let v = table_versions
                        .entry(table.clone())
                        .or_insert_with(|| e.maintainer.version());
                    *v = (*v).min(e.maintainer.version());
                }
                count += 1;
            }
        }
        ShardReport {
            summaries,
            states,
            heap,
            min_version,
            table_versions: table_versions.into_iter().collect(),
            count,
            last_error: state.last_error.clone(),
        }
    }

    /// Recapture every sketch with fresh equi-depth partitions (§7.4) —
    /// the shared [`crate::middleware::repartition_store`] loop, with the
    /// error surfaced through inspection (no synchronous caller to fail).
    fn repartition(&self, state: &mut ShardState) -> usize {
        let recaptured = {
            let db = self.db.read();
            match crate::middleware::repartition_store(&mut state.store, &db, &self.config) {
                Ok(n) => n,
                Err(e) => {
                    state.last_error = Some(e.to_string());
                    0
                }
            }
        };
        publish(self.id, state, &self.board, &self.obs);
        recaptured
    }
}

/// One maintenance run over a claim's coalesced routed batches. Sketches
/// the advisor demoted below [`Lifecycle::Maintained`] are skipped —
/// they are brought current on demand by the next query that needs
/// them (the delta log keeps their records; vacuum horizons respect
/// every stored sketch's maintained version). Free function so owner and
/// thief run the identical pass.
pub(crate) fn run_claim(
    state: &mut ShardState,
    routed: &FxHashMap<String, Vec<Arc<crate::sched::router::TableDelta>>>,
    db: &Database,
    config: &ImpConfig,
    metrics: &SchedMetrics,
    tracker: &WorkloadTracker,
    obs: &Obs,
) {
    for (template, entries) in state.store.iter_mut() {
        for entry in entries.iter_mut() {
            if entry.lifecycle != Lifecycle::Maintained
                || !entry
                    .maintainer
                    .tables()
                    .iter()
                    .any(|t| routed.contains_key(t))
            {
                continue;
            }
            let _span = trace::span("maintain_routed");
            let from_version = entry.maintainer.version();
            let mut run = || -> Result<MaintReport> {
                restore_if_evicted(entry)?;
                let report = entry.maintainer.maintain_from(db, routed)?;
                retain_version(entry, config.retain_sketch_versions);
                Ok(report)
            };
            match run() {
                Ok(report) => {
                    metrics.maintain_runs.inc();
                    obs.maintain_observed_spanned(
                        template.text(),
                        report.duration.as_nanos() as u64,
                        report.advisor_cost().delta_rows,
                        report.recaptured,
                        from_version,
                        entry.maintainer.version(),
                    );
                    tracker.record_maintenance(
                        SketchKey::new(template.text(), entry.sql.clone()),
                        report.advisor_cost(),
                    );
                }
                Err(e) => state.last_error = Some(e.to_string()),
            }
        }
    }
}

/// Publish `shard`'s current sketches as an immutable snapshot.
/// The plan/SQL/tables of each entry are `Arc`-wrapped once and
/// cached — per flush only the sketch bits are cloned. Free function so
/// a thief can publish the victim's shard after a stolen claim.
pub(crate) fn publish(shard: usize, state: &mut ShardState, board: &SnapshotBoard, obs: &Obs) {
    let _span = obs.span("snapshot_publish");
    let sketches: Vec<PublishedSketch> = state
        .store
        .iter_mut()
        .flat_map(|(template, entries)| {
            entries.iter_mut().map(|e| {
                if e.published_meta.is_none() {
                    e.published_meta = Some(PublishedMeta {
                        sql: Arc::from(e.sql.as_str()),
                        plan: Arc::new(e.plan.clone()),
                        tables: e.maintainer.tables().to_vec().into(),
                    });
                }
                let meta = e.published_meta.as_ref().expect("just filled");
                PublishedSketch {
                    template: template.clone(),
                    sql: Arc::clone(&meta.sql),
                    plan: Arc::clone(&meta.plan),
                    tables: Arc::clone(&meta.tables),
                    sketch: Arc::new(e.maintainer.sketch().clone()),
                    version: e.maintainer.version(),
                    lifecycle: e.lifecycle,
                    state_bytes: stored_heap_size(e),
                }
            })
        })
        .collect();
    let count = sketches.len();
    obs.emit(|| ObsEvent::SnapshotPublish {
        shard,
        sketches: count,
    });
    let epoch = board.publish(shard, sketches);
    obs.flight().record(crate::obs::FlightEvent::Published {
        shard: shard as u64,
        sketches: count as u64,
        epoch,
    });
}
