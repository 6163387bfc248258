//! Churn stress: sustained insert+delete streams dominated by Δ⋈Δ
//! cancellations.
//!
//! Each round inserts a fresh id window of |Δ| rows and deletes exactly
//! that window before the sketch is maintained, so the delta log the
//! maintainer consumes is all cancellation: the net table change is
//! zero and the +Δ/−Δ pairs must annihilate inside the delta join
//! rather than touch the base table.
//!
//! The paper's core claim (§8.2) is that incremental maintenance cost
//! tracks |Δ|, not database size. Churn is the adversarial case: the
//! work is pure delta-side bookkeeping. The harness **panics** when
//! - delta rows consumed for a fixed |Δ| change as the base grows 10×
//!   (they are a deterministic function of the stream alone),
//! - rows processed for a fixed |Δ| grow by more than 3× across the
//!   10× base growth (maintenance cost scaling with base size), or
//! - rows processed fail to grow with |Δ| at a fixed base size.

use imp_bench::*;
use imp_core::maintain::SketchMaintainer;
use imp_core::metrics::MaintMetrics;
use imp_core::ops::OpConfig;
use imp_data::queries;
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;
use std::sync::Arc;
use std::time::Duration;

struct ChurnRun {
    total: Duration,
    metrics: MaintMetrics,
    recaptures: usize,
}

/// `rounds` of insert-then-delete churn over a fresh table of `base`
/// rows: every round adds |Δ| rows in a private id window and removes
/// the same window before maintaining, so each maintenance run sees a
/// 2·|Δ|-row delta that cancels to nothing.
fn run_churn(base: usize, delta: usize, rounds: usize, groups: i64) -> ChurnRun {
    let name = format!("c{base}d{delta}");
    let mut db = Database::new();
    load(
        &mut db,
        &SyntheticConfig {
            name: name.clone(),
            rows: base,
            groups,
            ..Default::default()
        },
    )
    .unwrap();
    let sql = queries::q_groups(&name, 1_600);
    let plan = db.plan_sql(&sql).unwrap();
    let pset = pset_for(&db, &name, "a", 100);
    let (mut m, _) =
        SketchMaintainer::capture(&plan, &db, Arc::clone(&pset), OpConfig::default(), true)
            .unwrap();

    let mut total = Duration::ZERO;
    let mut metrics = MaintMetrics::default();
    let mut recaptures = 0usize;
    for round in 0..rounds {
        // Fresh ids far above the base table so the delete window hits
        // exactly the rows this round inserted — pure Δ⋈Δ cancellation.
        let start = base * 4 + round * delta;
        let ins = insert_stream(&name, 1, delta, groups, start, round as u64);
        let WorkloadOp::Update { sql, .. } = &ins[0] else {
            unreachable!()
        };
        db.execute_sql(sql).unwrap();
        db.execute_sql(&format!(
            "DELETE FROM {name} WHERE id >= {start} AND id < {}",
            start + delta
        ))
        .unwrap();
        let (t, rep) = time_once(|| m.maintain(&db).unwrap());
        total += t;
        metrics.absorb(&rep.metrics);
        if rep.recaptured {
            recaptures += 1;
        }
    }
    ChurnRun {
        total,
        metrics,
        recaptures,
    }
}

fn main() {
    let base_small = scaled(10_000, 1_000);
    let base_large = base_small * 10;
    let groups = 200i64;
    let rounds = scaled(40, 8);
    let deltas = [50usize, 500];
    println!(
        "churn: {rounds} insert+delete rounds, base {base_small} vs {base_large} rows, \
         |Δ| in {deltas:?}"
    );

    let mut report = BenchReport::new("fig_churn");
    let mut out = Vec::new();
    let mut runs = Vec::new();
    for &base in &[base_small, base_large] {
        for &delta in &deltas {
            let r = run_churn(base, delta, rounds, groups);
            report.add(
                Record::new("churn", format!("base{base}/d{delta}"))
                    .time("maintain_total", r.total)
                    .count("delta_rows_fetched", r.metrics.delta_rows_fetched, true)
                    .count("rows_processed", r.metrics.rows_processed, true)
                    .count("db_roundtrips", r.metrics.db_roundtrips, true)
                    .count("recaptures", r.recaptures as u64, true)
                    .count("rt_saved", r.metrics.db_roundtrips_avoided, false),
            );
            out.push(vec![
                base.to_string(),
                delta.to_string(),
                ms(r.total.as_secs_f64() * 1e3),
                r.metrics.delta_rows_fetched.to_string(),
                r.metrics.rows_processed.to_string(),
                r.recaptures.to_string(),
            ]);
            runs.push((base, delta, r));
        }
    }
    print_table(
        "churn: maintenance cost under pure insert+delete cancellation",
        &[
            "base",
            "delta",
            "total",
            "Δ fetched",
            "rows proc",
            "recaptures",
        ],
        &out,
    );

    let find = |base: usize, delta: usize| -> &ChurnRun {
        &runs
            .iter()
            .find(|(b, d, _)| *b == base && *d == delta)
            .unwrap()
            .2
    };
    for &delta in &deltas {
        let small = find(base_small, delta);
        let large = find(base_large, delta);
        // The stream is identical at both base sizes, so the delta rows
        // the maintainer consumes must be too — any difference means the
        // maintainer read the base table to process a delta.
        assert_eq!(
            small.metrics.delta_rows_fetched, large.metrics.delta_rows_fetched,
            "delta rows consumed changed with base size at |Δ|={delta}"
        );
        let ratio =
            large.metrics.rows_processed as f64 / small.metrics.rows_processed.max(1) as f64;
        assert!(
            ratio <= 3.0,
            "rows processed grew {ratio:.1}x across a 10x base growth at |Δ|={delta} — \
             maintenance cost is scaling with base size, not |Δ|"
        );
        println!("|Δ|={delta}: rows processed x{ratio:.2} across 10x base growth (bound 3.0) ✓");
    }
    for &base in &[base_small, base_large] {
        let lo = find(base, deltas[0]);
        let hi = find(base, deltas[1]);
        assert!(
            hi.metrics.delta_rows_fetched > lo.metrics.delta_rows_fetched,
            "delta rows consumed did not grow with |Δ| at base {base} \
             ({} vs {})",
            lo.metrics.delta_rows_fetched,
            hi.metrics.delta_rows_fetched
        );
        // Cancellation dominance: the +Δ/−Δ pairs must annihilate in the
        // delta join, not flow through the operators as real work.
        assert!(
            hi.metrics.rows_processed <= hi.metrics.delta_rows_fetched / 2,
            "Δ⋈Δ cancellations did not dominate at base {base}: \
             {} of {} delta rows reached the operators",
            hi.metrics.rows_processed,
            hi.metrics.delta_rows_fetched
        );
    }
    println!("\nmaintenance cost tracks |Δ|, not base size, under churn ✓");
    report.finish();
}
