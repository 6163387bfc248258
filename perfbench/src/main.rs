//! `imp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary, then as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when a correctness check fails, 2 on bad
//! arguments or a run that could not complete.

use imp_perfbench::replay::replay;
use imp_perfbench::report::{
    coverage_and_overhead, dominant_layer, drain_p50_ms, end_to_end, layer_self_ms, per_layer,
    skip_fraction, Metric,
};
use imp_perfbench::run::run_imp;
use imp_perfbench::stats::ratio;
use imp_perfbench::workload::{stream, Kind, Sizes, Workload};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: imp-perfbench --workload <read-heavy|churn-eager|tpch-sharded> \
                     --seed <n> --seconds <1..600> --trace <0|1>";

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("imp-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

/// Run one workload; `Ok(false)` when a correctness check failed.
fn bench(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let sizes = Sizes::standard(w, args.seconds);
    let stream = stream(w, &sizes, args.seed);
    println!(
        "workload {} seed {} stream_hash {:016x}: {} queries, {} inserts, {} deletes, {} drains, \
         {} untimed vacuums; \
         closed loop, 1 client, {} shard worker(s), {} cores available",
        w.name(),
        args.seed,
        stream.hash(),
        stream.count(Kind::Query),
        stream.count(Kind::Insert),
        stream.count(Kind::Delete),
        stream.count(Kind::Drain),
        stream.count(Kind::Vacuum),
        w.config().sched_workers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let start = Instant::now();
    let run = run_imp(w, &sizes, args.seed, &stream)?;
    let untraced_wall = start.elapsed().as_secs_f64();
    let mut violations = run.violations();
    let (e2e, tails) = end_to_end(&run)?;
    let attempted: u64 = run.attempted.values().sum();

    println!("-- end to end (untraced run, {untraced_wall:.1} s wall)");
    print_metrics(&e2e);
    for (name, t) in &tails {
        println!(
            "  {name} is p{} of {} samples ({} beyond)",
            t.quantile * 100.0,
            t.samples,
            t.beyond
        );
    }
    if let Some(ms) = drain_p50_ms(&run) {
        println!("metric drain_p50_ms = {ms} ms");
    }
    println!("metric skip_fraction = {} fraction", skip_fraction(&run));
    println!(
        "metric failed_ops_frac = {} fraction",
        ratio(run.failed as f64, attempted as f64)
    );
    for e in &run.errors {
        println!("  error: {e}");
    }
    println!(
        "check answers: {} of {} sampled answers equal the unfiltered answer",
        run.answers_checked - run.answer_mismatches.len(),
        run.answers_checked
    );
    println!(
        "check Theorem 6.1: {} sketches after a final drain; under_fragments {}, \
         over_fragments {}",
        run.coverage.sketches, run.coverage.under, run.coverage.over
    );
    let value = |name: &str| e2e.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    println!(
        "paper shape (ungated): ns_query_p50_ms / query_p50_ms = {:.3}",
        ratio(value("ns_query_p50_ms"), value("query_p50_ms"))
    );
    if run.captured > 0 {
        println!("note: {} timed queries captured a new sketch", run.captured);
    }

    let metrics = if args.trace {
        let start = Instant::now();
        let replay = replay(w, &sizes, args.seed, &stream, &run.psets)?;
        let traced_wall = start.elapsed().as_secs_f64();
        if replay.states != run.states {
            violations.push("replay sketches differ from Imp::sketch_states()".into());
        }
        violations.extend(replay.errors.iter().cloned());
        std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
        let path = format!("{SPAN_DIR}/spans-{}-seed{}.csv", w.name(), args.seed);
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?,
        );
        replay
            .tracer
            .write_csv(&mut file)
            .and_then(|()| std::io::Write::flush(&mut file))
            .map_err(|e| format!("{path}: {e}"))?;

        let layers = per_layer(&run, &replay, &stream)?;
        println!(
            "-- per layer (traced replay, {traced_wall:.1} s wall; {} spans in {path})",
            replay.tracer.spans().len()
        );
        print_metrics(&layers);
        let (coverage, traced_ratio) = coverage_and_overhead(&run, &replay, &stream);
        println!(
            "coverage: layer self time sums to {:.1}% of the untraced per-op time; \
             replay operations take {:.3}x the untraced time",
            100.0 * coverage,
            traced_ratio
        );
        let self_ms = layer_self_ms(&replay);
        let shares: Vec<String> = self_ms
            .iter()
            .map(|(layer, ms)| format!("{layer} {ms:.1} ms"))
            .collect();
        println!("self time by layer: {}", shares.join(", "));
        println!(
            "replay sketches {} Imp::sketch_states() ({} sketches)",
            if replay.states == run.states {
                "are bit-identical to"
            } else {
                "DIFFER from"
            },
            replay.states.len()
        );
        println!("{}", dominant_layer(w, &run, &replay));
        let layer = |name: &str| {
            layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        println!(
            "paper shape (ungated): sketch.capture_ms / maintain.run_us = {:.1} (FM/IMP per maintenance)",
            layer("shape.fm_over_imp")
        );
        layers
    } else {
        e2e
    };

    for v in &violations {
        println!("VIOLATION: {v}");
    }
    println!(
        "{}",
        json_line(violations.is_empty(), attempted, run.failed, &metrics)?
    );
    Ok(violations.is_empty())
}
