//! The benchmark's own checks at small sizes: count metrics repeat for a
//! seed, the replay reproduces the `Imp` run's sketches, and the
//! Theorem 6.1 check notices a missing fragment.

use imp_perfbench::replay::replay;
use imp_perfbench::report::counts;
use imp_perfbench::run::{check_coverage, partition_sets, run_imp, setup};
use imp_perfbench::workload::{stream, Sizes, Workload};
use std::collections::BTreeMap;

/// Run `w` at its tiny sizes; returns the stream hash and the counts.
fn counts_of(w: Workload, seed: u64) -> (u64, BTreeMap<&'static str, u64>) {
    let sizes = Sizes::tiny(w);
    let ops = stream(w, &sizes, seed);
    let run = run_imp(w, &sizes, seed, &ops).expect("run completes");
    assert_eq!(run.violations(), Vec::<String>::new(), "{}", w.name());
    assert_eq!(run.failed, 0, "{}: {:?}", w.name(), run.errors);
    let traced = replay(w, &sizes, seed, &ops, &run.psets).expect("replay completes");
    assert!(traced.errors.is_empty(), "{:?}", traced.errors);
    assert_eq!(traced.states, run.states, "{}: replay sketches", w.name());
    (ops.hash(), counts(&run, &traced))
}

#[test]
fn inline_counts_repeat_for_a_seed() {
    for w in [Workload::ReadHeavy, Workload::ChurnEager] {
        let first = counts_of(w, 3);
        assert_eq!(first, counts_of(w, 3), "{}", w.name());
        assert!(
            first.1["maintain.runs"] > 0,
            "{}: maintenance ran",
            w.name()
        );
        assert!(
            first.1["engine.rows_scanned"] > 0,
            "{}: queries scanned",
            w.name()
        );
        let other = counts_of(w, 4);
        assert_ne!(
            first.0,
            other.0,
            "{}: another seed, another stream",
            w.name()
        );
    }
}

#[test]
fn sharded_replay_matches_the_scheduler() {
    counts_of(Workload::TpchSharded, 5);
}

#[test]
fn coverage_check_reports_a_missing_fragment() {
    let w = Workload::ChurnEager;
    let sizes = Sizes::tiny(w);
    let ops = stream(w, &sizes, 6);
    let imp = setup(w, &sizes, 6, &ops).expect("set-up");
    let psets = partition_sets(&imp, &ops).expect("partition sets");
    let mut states = imp.sketch_states();
    let db = imp.db();
    assert_eq!(
        check_coverage(&db, &states, &psets).expect("check").under,
        0
    );
    let state = states
        .iter_mut()
        .find(|s| s.bits.count_ones() > 0)
        .expect("a sketch marks a fragment");
    let marked = state.bits.iter_ones().next().expect("marked fragment");
    state.bits.set(marked, false);
    assert_eq!(
        check_coverage(&db, &states, &psets).expect("check").under,
        1
    );
}
