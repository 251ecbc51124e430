//! SharedCache persistence round trips through a real service lifecycle.
//!
//! The contract under test, on all eight bundled designs:
//!
//! * serialize → reload is a *cache-hit-rate no-op*: a fresh service
//!   restored from disk asks the solver exactly as many questions as a
//!   warm service would, and produces identical reports;
//! * serialize → corrupt (truncate, bit-flip, version bump) → reload
//!   **quarantines** the image and cold-rebuilds — same verdicts, no crash.

use lilac_designs::Design;
use lilac_service::{CheckService, ServiceConfig};
use lilac_solver::persist::{CacheLoadError, CacheLoadStatus};
use lilac_solver::SolverStats;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A zero-backoff service: fully deterministic query counts.
fn config(cache_path: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig { backoff: Duration::ZERO, cache_path, ..ServiceConfig::default() }
}

/// Checks every bundled design through `service`, returning per-design
/// debug-rendered reports (the fuzzer's equivalence currency) and the
/// total solver effort.
fn check_all(service: &CheckService) -> (Vec<String>, SolverStats) {
    let mut rendered = Vec::new();
    let mut stats = SolverStats::default();
    for design in Design::all() {
        let program = design.program().expect("bundled design parses");
        let outcome = service.check(&program);
        let report = outcome.verdict.expect("bundled designs check clean");
        stats = report.components.iter().fold(stats, |acc, c| acc.merged(c.solver_stats));
        rendered.push(format!(
            "{design:?}: {:?}",
            report
                .components
                .iter()
                .map(|c| (c.name.as_str(), c.obligations, c.proved, format!("{:?}", c.diagnostics)))
                .collect::<Vec<_>>()
        ));
        assert!(outcome.degradations.is_empty(), "{design:?}: no faults, no degradations");
    }
    (rendered, stats)
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lilac-service-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("cache.bin")
}

fn cleanup(path: &Path) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn reload_from_disk_is_a_cache_hit_rate_no_op() {
    let path = temp_cache("roundtrip");

    // Session 1: cold service, check everything, persist the cache.
    let first = CheckService::new(config(Some(path.clone())));
    assert_eq!(first.cache_status(), Some(&CacheLoadStatus::Missing));
    let (cold_reports, _cold_stats) = check_all(&first);
    // Warm pass in the same session: the reference for what "no cold-start
    // cost" means in queries asked.
    let (warm_reports, warm_stats) = check_all(&first);
    let entries = first.cache_entries();
    assert!(entries > 0, "eight designs must leave cache entries");
    let written = first.save_cache().expect("save").expect("path configured");
    assert_eq!(written, entries);
    drop(first);

    // Session 2: a fresh service restored from disk must behave like the
    // warm session, not the cold one.
    let second = CheckService::new(config(Some(path.clone())));
    assert_eq!(second.cache_status(), Some(&CacheLoadStatus::Loaded { entries }));
    assert_eq!(second.cache_entries(), entries);
    let (reload_reports, reload_stats) = check_all(&second);
    assert_eq!(reload_reports, warm_reports, "reports must survive the reload byte-for-byte");
    assert_eq!(reload_reports, cold_reports, "the cache must never change an answer");
    assert_eq!(
        reload_stats.queries, warm_stats.queries,
        "reload must hit the cache exactly as often as a warm service"
    );
    assert_eq!(reload_stats.cache_hits, warm_stats.cache_hits);

    cleanup(&path);
}

#[test]
fn corrupted_images_quarantine_and_rebuild_with_identical_verdicts() {
    let path = temp_cache("corrupt");

    // Establish the baseline verdicts and a persisted image.
    let first = CheckService::new(config(Some(path.clone())));
    let (baseline_reports, _) = check_all(&first);
    first.save_cache().expect("save").expect("path configured");
    drop(first);
    let image = std::fs::read(&path).expect("image written");

    // Each corruption the fault injector knows how to apply, by hand.
    let corruptions: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", image[..image.len() / 2].to_vec()),
        ("bit-flipped", {
            let mut bad = image.clone();
            let mid = 28 + (bad.len() - 28) / 2;
            bad[mid] ^= 0x10;
            bad
        }),
        ("version-bumped", {
            let mut bad = image.clone();
            bad[8] = bad[8].wrapping_add(1);
            bad
        }),
    ];

    for (what, bytes) in corruptions {
        std::fs::write(&path, &bytes).expect("write corrupted image");
        let service = CheckService::new(config(Some(path.clone())));
        let status = service.cache_status().expect("path configured").clone();
        match &status {
            CacheLoadStatus::Quarantined { error, moved_to } => {
                match what {
                    "truncated" => assert_eq!(error, &CacheLoadError::Truncated),
                    "bit-flipped" => assert_eq!(error, &CacheLoadError::ChecksumMismatch),
                    "version-bumped" => {
                        assert!(matches!(error, CacheLoadError::UnsupportedVersion(_)));
                    }
                    _ => unreachable!(),
                }
                let moved = moved_to.as_ref().expect("quarantine rename succeeds in temp dir");
                assert!(moved.exists(), "{what}: quarantined image must be preserved");
                assert!(!path.exists(), "{what}: bad image must leave the live path");
                let _ = std::fs::remove_file(moved);
            }
            other => panic!("{what}: expected quarantine, got {other:?}"),
        }
        assert_eq!(service.cache_entries(), 0, "{what}: quarantine starts cold");
        assert_eq!(service.stats().cache_quarantines, 1);
        // The cold rebuild must reach exactly the baseline verdicts.
        let (reports, _) = check_all(&service);
        assert_eq!(reports, baseline_reports, "{what}: corruption must never change a verdict");
    }

    cleanup(&path);
}
