//! Metric definitions: the end-to-end metrics of the untraced run, the
//! per-layer metrics of the traced run, and the printed summary lines.

use crate::replay::Replay;
use crate::run::ImpRun;
use crate::stats::{median, ratio, tail, Tail};
use crate::workload::{Kind, Stream, Workload};
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn samples(run: &ImpRun, kind: Kind) -> &[f64] {
    run.latency_ms.get(&kind).map_or(&[], Vec::as_slice)
}

fn p50(name: &str, values: &[f64]) -> Result<f64, String> {
    median(values).ok_or_else(|| format!("{name}: no samples"))
}

fn tail_of(name: &str, values: &[f64]) -> Result<Tail, String> {
    tail(values).ok_or_else(|| format!("{name}: too few samples for a tail"))
}

/// Median drain latency, on workloads whose stream has drains. Printed,
/// not gated: only `tpch-sharded` drains (see `BENCHMARK.json`).
pub fn drain_p50_ms(run: &ImpRun) -> Option<f64> {
    median(samples(run, Kind::Drain))
}

/// Summed rows skipped over rows scanned plus skipped, over every answer.
pub fn skip_fraction(run: &ImpRun) -> f64 {
    let skipped = run.exec.rows_skipped as f64;
    ratio(skipped, skipped + run.exec.rows_scanned as f64)
}

/// Named tails, with their percentiles, for the printed summary.
pub type Tails = Vec<(String, Tail)>;

/// The end-to-end metrics `BENCHMARK.json` gates, in its order, and the
/// tails' percentiles for the printed summary.
pub fn end_to_end(run: &ImpRun) -> Result<(Vec<Metric>, Tails), String> {
    let mut out = vec![
        metric("setup_s", p50("setup_s", &run.setup_s)?, "s"),
        metric(
            "ops_per_s",
            run.statements_ok() as f64 / (run.timed_ms() / 1e3),
            "1/s",
        ),
    ];
    let mut tails = Vec::new();
    for kind in [Kind::Query, Kind::Insert, Kind::Delete] {
        let v = samples(run, kind);
        let label = kind.label();
        out.push(metric(format!("{label}_p50_ms"), p50(label, v)?, "ms"));
        let t = tail_of(label, v)?;
        out.push(metric(format!("{label}_tail_ms"), t.value, "ms"));
        tails.push((format!("{label}_tail_ms"), t));
    }
    out.push(metric(
        "scan_fraction",
        1.0 - skip_fraction(run),
        "fraction",
    ));
    out.push(metric(
        "sketch_state_bytes",
        run.state_bytes as f64,
        "bytes",
    ));
    out.push(metric("ns_query_p50_ms", p50("ns", &run.ns_ms)?, "ms"));
    Ok((out, tails))
}

/// Durations of the spans named `name` inside operations of `kind`, in
/// ms times `scale` (1e3 gives µs).
fn span_values(
    replay: &Replay,
    stream: &Stream,
    name: &str,
    kind: Option<Kind>,
    scale: f64,
) -> Vec<f64> {
    replay
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && kind.is_none_or(|k| stream.ops[s.op as usize].kind == k))
        .map(|s| s.ns() as f64 / 1e6 * scale)
        .collect()
}

/// Self time per layer inside the replay's operations, in ms.
pub fn layer_self_ms(replay: &Replay) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (name, ms) in call_self_ms(replay) {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer).or_insert(0.0) += ms;
    }
    out
}

/// Self time per span name inside the replay's operations, in ms.
pub fn call_self_ms(replay: &Replay) -> BTreeMap<&'static str, f64> {
    replay
        .tracer
        .self_by_name()
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e6))
        .collect()
}

/// Replay time of the operations against `Imp` time of the same
/// operations: (layer calls / untraced, replay operations / untraced).
pub fn coverage_and_overhead(run: &ImpRun, replay: &Replay, stream: &Stream) -> (f64, f64) {
    let (mut op, mut layer, mut untraced) = (0.0, 0.0, 0.0);
    for kind in Kind::ALL {
        let (o, l) = replay.op_and_layer_ms(stream, kind);
        op += o;
        layer += l;
        untraced += run.total_ms(kind);
    }
    (ratio(layer, untraced), ratio(op, untraced))
}

/// The per-layer metrics of the traced run, in `BENCHMARK.json`'s order.
pub fn per_layer(run: &ImpRun, replay: &Replay, stream: &Stream) -> Result<Vec<Metric>, String> {
    let span_p50 = |name: &str, kind: Option<Kind>, scale: f64| -> f64 {
        median(&span_values(replay, stream, name, kind, scale)).unwrap_or(0.0)
    };
    let span_tail = |name: &str, kind: Option<Kind>, scale: f64| -> f64 {
        tail(&span_values(replay, stream, name, kind, scale)).map_or(0.0, |t| t.value)
    };
    let m = &replay.maint.metrics;
    let updates = (stream.count(Kind::Insert) + stream.count(Kind::Delete)) as f64;
    let sched = run.sched.unwrap_or_default();
    let layers = layer_self_ms(replay);
    let self_ms = |layer: &str| layers.get(layer).copied().unwrap_or(0.0);
    let residual = |kind: Kind| {
        let untraced = run.total_ms(kind);
        if untraced == 0.0 {
            0.0
        } else {
            1.0 - replay.op_and_layer_ms(stream, kind).1 / untraced
        }
    };
    let (coverage, traced_over_untraced) = coverage_and_overhead(run, replay, stream);
    let capture_ms = median(&replay.capture_ms).unwrap_or(0.0);
    let maintain_us = span_p50("maintain.run", None, 1e3);
    let e2e = end_to_end(run)?.0;
    let e2e_value = |name: &str| e2e.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);

    Ok(vec![
        metric(
            "sql.parse_select_us",
            span_p50("sql.parse", Some(Kind::Query), 1e3),
            "us",
        ),
        metric(
            "sql.resolve_us",
            span_p50("sql.resolve", Some(Kind::Query), 1e3),
            "us",
        ),
        metric(
            "sql.parse_insert_us",
            span_p50("sql.parse", Some(Kind::Insert), 1e3),
            "us",
        ),
        metric("engine.scan_ms", span_p50("engine.scan", None, 1.0), "ms"),
        metric(
            "engine.scan_tail_ms",
            span_tail("engine.scan", None, 1.0),
            "ms",
        ),
        metric("engine.rows_scanned", run.exec.rows_scanned as f64, "count"),
        metric("engine.rows_skipped_frac", skip_fraction(run), "fraction"),
        metric("engine.join_probes", run.exec.join_probes as f64, "count"),
        metric(
            "engine.apply_insert_us",
            span_p50("engine.apply", Some(Kind::Insert), 1e3),
            "us",
        ),
        metric(
            "engine.apply_delete_us",
            span_p50("engine.apply", Some(Kind::Delete), 1e3),
            "us",
        ),
        metric(
            "engine.ns_scan_ms",
            span_p50("engine.ns_scan", None, 1.0),
            "ms",
        ),
        metric(
            "sketch.rewrite_us",
            span_p50("sketch.rewrite", None, 1e3),
            "us",
        ),
        metric("sketch.capture_ms", capture_ms, "ms"),
        metric(
            "sketch.marked_frac",
            ratio(run.coverage.marked as f64, run.coverage.total as f64),
            "fraction",
        ),
        metric("sketch.over_fragments", run.coverage.over as f64, "count"),
        metric("sketch.under_fragments", run.coverage.under as f64, "count"),
        metric("maintain.run_us", maintain_us, "us"),
        metric(
            "maintain.run_tail_us",
            span_tail("maintain.run", None, 1e3),
            "us",
        ),
        metric(
            "maintain.runs_per_update",
            ratio(replay.maint.runs as f64, updates),
            "ratio",
        ),
        metric("maintain.delta_rows", m.delta_rows_fetched as f64, "count"),
        metric("maintain.rows_processed", m.rows_processed as f64, "count"),
        metric("maintain.groups_touched", m.groups_touched as f64, "count"),
        metric(
            "maintain.pushdown_pruned_frac",
            ratio(m.delta_rows_pruned as f64, m.delta_rows_fetched as f64),
            "fraction",
        ),
        metric("maintain.bloom_pruned", m.bloom_pruned as f64, "count"),
        metric(
            "maintain.memo_hit_frac",
            ratio(
                m.pool_union_memo_hits as f64,
                (m.pool_union_memo_hits + m.pool_unions_computed) as f64,
            ),
            "fraction",
        ),
        metric(
            "maintain.recapture_frac",
            ratio(replay.maint.recaptured as f64, replay.maint.runs as f64),
            "fraction",
        ),
        metric("maintain.db_roundtrips", m.db_roundtrips as f64, "count"),
        metric("maintain.index_probes", m.join_index_probes as f64, "count"),
        metric(
            "maintain.nary_probes",
            replay.maint.nary_probes as f64,
            "count",
        ),
        metric("maintain.state_bytes", replay.state_bytes as f64, "bytes"),
        metric(
            "maintain.delta_bytes_pooled",
            m.delta_bytes_pooled as f64,
            "bytes",
        ),
        metric("sched.routed_batches", sched.routed_batches as f64, "count"),
        metric(
            "sched.coalesced_frac",
            ratio(sched.coalesced_batches as f64, sched.routed_batches as f64),
            "fraction",
        ),
        metric("sched.staged_updates", sched.staged_updates as f64, "count"),
        metric(
            "sched.backpressure_stalls",
            sched.backpressure_stalls as f64,
            "count",
        ),
        metric("sched.maintain_runs", sched.maintain_runs as f64, "count"),
        metric(
            "sched.max_queue_depth",
            sched.max_queue_depth as f64,
            "count",
        ),
        metric(
            "middleware.query_residual_frac",
            residual(Kind::Query),
            "fraction",
        ),
        metric(
            "middleware.insert_residual_frac",
            residual(Kind::Insert),
            "fraction",
        ),
        metric(
            "middleware.delete_residual_frac",
            residual(Kind::Delete),
            "fraction",
        ),
        metric(
            "middleware.maintained_query_frac",
            ratio(run.maintained as f64, run.answered as f64),
            "fraction",
        ),
        metric("sql.self_ms", self_ms("sql"), "ms"),
        metric("engine.self_ms", self_ms("engine"), "ms"),
        metric("sketch.self_ms", self_ms("sketch"), "ms"),
        metric("maintain.self_ms", self_ms("maintain"), "ms"),
        metric("middleware.self_ms", self_ms("middleware"), "ms"),
        metric("trace.coverage_frac", coverage, "fraction"),
        metric("trace.traced_over_untraced", traced_over_untraced, "ratio"),
        metric(
            "shape.ns_over_imp",
            ratio(e2e_value("ns_query_p50_ms"), e2e_value("query_p50_ms")),
            "ratio",
        ),
        metric(
            "shape.fm_over_imp",
            ratio(capture_ms * 1e3, maintain_us),
            "ratio",
        ),
    ])
}

/// Count metrics that must repeat exactly for a seed on the in-line
/// workloads (no timing, no thread interleaving).
pub fn counts(run: &ImpRun, replay: &Replay) -> BTreeMap<&'static str, u64> {
    let m = &replay.maint.metrics;
    BTreeMap::from([
        ("engine.rows_scanned", run.exec.rows_scanned),
        ("engine.rows_skipped", run.exec.rows_skipped),
        ("engine.join_probes", run.exec.join_probes),
        ("sketch_state_bytes", run.state_bytes as u64),
        ("sketch.marked", run.coverage.marked as u64),
        ("sketch.over_fragments", run.coverage.over as u64),
        ("maintain.runs", replay.maint.runs),
        ("maintain.recaptured", replay.maint.recaptured),
        ("maintain.delta_rows", m.delta_rows_fetched),
        ("maintain.delta_rows_pruned", m.delta_rows_pruned),
        ("maintain.rows_processed", m.rows_processed),
        ("maintain.groups_touched", m.groups_touched),
        ("maintain.bloom_pruned", m.bloom_pruned),
        ("maintain.db_roundtrips", m.db_roundtrips),
        ("maintain.index_probes", m.join_index_probes),
        ("maintain.nary_probes", replay.maint.nary_probes),
        ("maintain.state_bytes", replay.state_bytes as u64),
        ("maintain.delta_bytes_pooled", m.delta_bytes_pooled),
        ("maintain.union_memo_hits", m.pool_union_memo_hits),
        ("middleware.maintained_queries", run.maintained),
    ])
}

/// The prediction each workload's traced run checks: which layer
/// dominates. Returns the verdict line.
pub fn dominant_layer(w: Workload, run: &ImpRun, replay: &Replay) -> String {
    let calls = call_self_ms(replay);
    let layers = layer_self_ms(replay);
    let total: f64 = layers
        .iter()
        .filter(|(l, _)| **l != "op")
        .map(|(_, v)| v)
        .sum();
    match w {
        Workload::ReadHeavy => {
            let (top, top_ms) = calls
                .iter()
                .filter(|(n, _)| !n.starts_with("op."))
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(("none", 0.0), |(n, v)| (*n, *v));
            let scan = calls.get("engine.scan").copied().unwrap_or(0.0);
            format!(
                "prediction read-heavy: engine.scan has the largest self time -> {} \
                 (engine.scan {:.1} ms = {:.1}% of layer self time; largest is {} {:.1} ms)",
                if top == "engine.scan" {
                    "confirmed"
                } else {
                    "refuted"
                },
                scan,
                100.0 * ratio(scan, total),
                top,
                top_ms
            )
        }
        Workload::ChurnEager => {
            let apply = calls.get("engine.apply").copied().unwrap_or(0.0);
            let maintain = layers.get("maintain").copied().unwrap_or(0.0);
            let share = ratio(apply + maintain, total);
            format!(
                "prediction churn-eager: maintain + engine.apply are the majority -> {} \
                 (maintain {:.1}% + engine.apply {:.1}% = {:.1}% of layer self time; \
                 engine.scan {:.1}%)",
                if share > 0.5 { "confirmed" } else { "refuted" },
                100.0 * ratio(maintain, total),
                100.0 * ratio(apply, total),
                100.0 * share,
                100.0 * ratio(calls.get("engine.scan").copied().unwrap_or(0.0), total)
            )
        }
        Workload::TpchSharded => {
            let s = run.sched.unwrap_or_default();
            let nonzero = s.routed_batches > 0 && s.maintain_runs > 0 && s.staged_updates > 0;
            format!(
                "prediction tpch-sharded: sched counters are nonzero -> {} \
                 (routed_batches {}, maintain_runs {}, staged_updates {}); \
                 skip_fraction as measured = {}",
                if nonzero { "confirmed" } else { "refuted" },
                s.routed_batches,
                s.maintain_runs,
                s.staged_updates,
                skip_fraction(run)
            )
        }
    }
}
