//! Pins the deterministic report to the checked-in golden file
//! (`report_baseline.txt`): Figure 8's obligation and solver counts, the
//! optimizer's node counts on the paper netlists, and the warm-recheck
//! replays of every bundled design. Any change to one of those numbers
//! fails here until the file is regenerated and the change reviewed.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p lilac-bench --bin figure8 -- --report > crates/bench/tests/report_baseline.txt
//! ```

#[test]
fn report_matches_golden_baseline() {
    let golden_path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/report_baseline.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("golden baseline exists");
    let got = lilac_bench::report().expect("bundled designs check and elaborate");
    assert!(
        got == golden,
        "deterministic report diverged from {}:\n--- golden\n{golden}\n--- got\n{got}\n\
         If the change is intended, regenerate with\n\
         `cargo run --release -p lilac-bench --bin figure8 -- --report > \
         crates/bench/tests/report_baseline.txt`",
        golden_path.display()
    );
}

#[test]
fn query_cache_and_warm_rechecks_carry_weight() {
    // A regenerated golden could still hide a pipeline that stopped
    // caching; these hold whatever the exact numbers are.
    let rows = lilac_bench::figure8().unwrap();
    let hits: usize = rows.iter().map(|r| r.solver.cache_hits).sum();
    let queries: usize = rows.iter().map(|r| r.solver.queries).sum();
    assert!(hits > 0, "the query cache never hit ({hits}/{queries} queries)");
    assert!(
        rows.iter().any(|r| r.solver.cache_hit_rate() > 0.5),
        "no design exceeds a 50% query-cache hit rate"
    );

    let rows = lilac_bench::incremental_report().unwrap();
    for row in &rows {
        assert_eq!(row.warm_hits + row.warm_misses, row.components, "{:?}", row.design);
        assert!(row.warm_hits > 0, "{:?}: warm re-check replayed nothing", row.design);
    }
    // At least one bundled design is fully clean, so its identical warm
    // re-check must be a complete replay.
    assert!(rows.iter().any(|r| r.warm_misses == 0), "no design achieved a 100% warm hit rate");
}
