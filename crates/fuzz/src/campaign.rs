//! Campaign-scale sharded fuzzing.
//!
//! The sequential driver ([`crate::run_fuzz`]) spends ~82 % of its wall
//! clock inside the checker — embarrassingly parallel work it runs one case
//! at a time. This module shards a run across cores without giving up one
//! bit of determinism:
//!
//! - **Seed-range partitioning.** The case-index range `0..cases` is split
//!   into contiguous shards ([`shard_ranges`]); case `i` keeps the same
//!   derived seed `case_seed(base, i)` it has sequentially, so `--replay i`
//!   reproduces any case regardless of how many shards observed it.
//! - **One engine set per shard.** Each shard runs on its own
//!   `lilac-util::par` worker with its own [`Session`] — its own
//!   [`SharedCache`], its own [`CheckService`](lilac_service::CheckService)
//!   worker pool, and (under `--cache`) its own shard-suffixed cache image
//!   ([`lilac_service::shard_cache_path`]) — so shards never contend on a
//!   lock and never race on a file.
//! - **Deterministic merge.** Shard outcomes are folded in global case-index
//!   order through the same [`crate::fold_record`] the sequential driver
//!   uses, with the same `max_failures` cut, so the merged
//!   [`FuzzSummary`] — fingerprint included — is byte-identical to the
//!   sequential run's for every shard count. Per-case records are a pure
//!   function of the case seed (session state shapes *how* oracles answer,
//!   never what is recorded), which is what makes the fold shard-invariant.
//! - **Coverage-guided distillation.** Every clean case carries a
//!   [`CoverageSignature`]; the distillation pass keeps the first case of
//!   each distinct signature in index order — a minimal corpus subset
//!   covering every observed signature (each case has exactly one
//!   signature, so one representative per signature is both necessary and
//!   sufficient) — and [`write_distilled`] emits it as ordinary corpus
//!   files that replay under `tests/corpus.rs`.

use crate::oracle::Session;
use crate::{
    fold_record, run_indexed_case, CaseRecord, CoverageSignature, FuzzConfig, FuzzSummary,
};
use lilac_solver::SharedCache;
use lilac_util::par::par_map;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Configuration of a sharded campaign: a plain fuzzing run plus a shard
/// count.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The underlying run (cases, seed, shrink, faults, cache, ...).
    pub fuzz: FuzzConfig,
    /// Number of shards to partition the case range into. Shards beyond the
    /// available parallelism simply queue on the worker pool; `1` degrades
    /// to the sequential driver's behaviour exactly.
    pub shards: usize,
}

/// Per-shard throughput and session statistics, for the stderr campaign
/// report.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index (0-based; shard `i` covers a contiguous index range).
    pub shard: usize,
    /// First case index of the shard's range.
    pub start: u64,
    /// Cases the shard actually ran (its range length, unless its local
    /// `max_failures` budget stopped it early).
    pub cases: u64,
    /// Wall-clock seconds the shard's worker spent.
    pub elapsed_secs: f64,
    /// Cases per second (0 for an empty shard).
    pub cases_per_sec: f64,
    /// Entries the shard's own shared solver cache accumulated.
    pub shared_cache_entries: usize,
    /// Faults the shard's service injected (0 without `--faults`).
    pub faults_injected: u64,
    /// Units the shard's service answered through its degradation ladder.
    pub degraded_units: u64,
    /// Entries the shard persisted to its shard-suffixed cache image.
    pub cache_entries_saved: Option<usize>,
}

/// One representative of a distinct coverage signature, in case-index order.
#[derive(Clone, Copy, Debug)]
pub struct DistilledCase {
    /// Case index within the run.
    pub index: u64,
    /// Derived case seed — `generate(seed)` reproduces the scenario.
    pub seed: u64,
    /// The signature this case represents.
    pub signature: CoverageSignature,
}

/// Result of a campaign: the merged summary (byte-identical to the
/// sequential run's), per-shard reports, and the distilled corpus.
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    /// Merged run summary — same fingerprint as the sequential driver.
    pub summary: FuzzSummary,
    /// One report per shard, in shard order.
    pub shards: Vec<ShardReport>,
    /// First case of every distinct coverage signature, in index order.
    pub distilled: Vec<DistilledCase>,
}

/// Partitions `0..cases` into `shards` contiguous `(start, len)` ranges:
/// every shard gets `cases / shards`, and the first `cases % shards` shards
/// one extra, so ranges differ in length by at most one and concatenate —
/// in shard order — back to `0..cases` exactly.
pub fn shard_ranges(cases: u64, shards: usize) -> Vec<(u64, u64)> {
    let shards = (shards.max(1) as u64).min(cases.max(1));
    let base = cases / shards;
    let extra = cases % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut start = 0;
    for s in 0..shards {
        let len = base + u64::from(s < extra);
        ranges.push((start, len));
        start += len;
    }
    ranges
}

/// What one shard's worker brings back to the merge.
struct ShardOutcome {
    /// Per-case records over the shard's range, in index order (possibly
    /// truncated by the shard's local `max_failures` budget — safe, because
    /// records beyond it lie past the global cut under any layout).
    records: Vec<CaseRecord>,
    /// The shard's session-level statistics (cache sizes, fault counters,
    /// persisted-entry counts), extracted through the same
    /// `finish_summary` path the sequential driver uses.
    session_stats: FuzzSummary,
    /// Handle to the shard's shared solver cache, for the union merge.
    cache: Option<SharedCache>,
    report: ShardReport,
}

/// Runs a sharded campaign. The merged summary is byte-identical to
/// `run_fuzz(&config.fuzz)` for every shard count.
pub fn run_campaign(config: &CampaignConfig) -> CampaignSummary {
    run_campaign_with_progress(config, |_| {})
}

/// [`run_campaign`] with a progress callback invoked with the total number
/// of completed cases (across all shards) after each case. Called from
/// shard workers concurrently, hence `Fn + Sync`.
pub fn run_campaign_with_progress(
    config: &CampaignConfig,
    progress: impl Fn(u64) + Sync,
) -> CampaignSummary {
    let ranges = shard_ranges(config.fuzz.cases, config.shards);
    let done = AtomicU64::new(0);
    let shard_inputs: Vec<(usize, u64, u64)> =
        ranges.iter().enumerate().map(|(s, &(start, len))| (s, start, len)).collect();

    let outcomes: Vec<ShardOutcome> = par_map(&shard_inputs, |&(shard, start, len)| {
        let began = Instant::now();
        let session = Session::for_shard(
            config.fuzz.faults,
            config.fuzz.cache_file.clone(),
            config.fuzz.incremental,
            shard,
        );
        let mut records = Vec::with_capacity(len as usize);
        let mut local_failures = 0usize;
        for index in start..start + len {
            let record = run_indexed_case(&config.fuzz, &session, index);
            if record.outcome.is_err() {
                local_failures += 1;
            }
            records.push(record);
            progress(done.fetch_add(1, Ordering::Relaxed) + 1);
            // A shard holding `max_failures` failures already straddles the
            // global cut: later indices of this shard can never be folded,
            // whatever the other shards contain, so stop early like the
            // sequential driver would.
            if local_failures >= config.fuzz.max_failures {
                break;
            }
        }
        let elapsed = began.elapsed().as_secs_f64();
        let mut session_stats = FuzzSummary::default();
        crate::finish_summary(&mut session_stats, &session);
        let cases = records.len() as u64;
        let report = ShardReport {
            shard,
            start,
            cases,
            elapsed_secs: elapsed,
            cases_per_sec: if elapsed > 0.0 { cases as f64 / elapsed } else { 0.0 },
            shared_cache_entries: session_stats.shared_cache_entries,
            faults_injected: session_stats.faults_injected,
            degraded_units: session_stats.degraded_units,
            cache_entries_saved: session_stats.cache_entries_saved,
        };
        ShardOutcome { records, session_stats, cache: session.shared_cache().cloned(), report }
    });

    // Merge phase 1: fold every record in global case-index order through
    // the exact fold the sequential driver uses. Shards are contiguous and
    // ascending, so shard-order iteration *is* index order.
    let mut summary = FuzzSummary::default();
    let mut folded: Vec<&CaseRecord> = Vec::new();
    'fold: for outcome in &outcomes {
        for record in &outcome.records {
            folded.push(record);
            if fold_record(&mut summary, record, config.fuzz.max_failures) {
                break 'fold;
            }
        }
    }

    // Merge phase 2: session-level statistics. The solver caches merge by
    // union ([`SharedCache::absorb`]); entry contents are deterministic per
    // query, so the union carries exactly the entries the sequential
    // session would hold, whatever the shard layout. Fault/service counters
    // sum — they count events, and every shard's events are disjoint.
    let merged_cache = SharedCache::new();
    let mut saved: Option<usize> = None;
    for outcome in &outcomes {
        if let Some(cache) = &outcome.cache {
            merged_cache.absorb(cache);
        }
        summary.faults_injected += outcome.session_stats.faults_injected;
        summary.degraded_units += outcome.session_stats.degraded_units;
        summary.failed_units += outcome.session_stats.failed_units;
        summary.cache_quarantines += outcome.session_stats.cache_quarantines;
        summary.report_hits += outcome.session_stats.report_hits;
        summary.report_misses += outcome.session_stats.report_misses;
        if let Some(n) = outcome.session_stats.cache_entries_saved {
            saved = Some(saved.unwrap_or(0) + n);
        }
    }
    summary.shared_cache_entries = merged_cache.len();
    summary.cache_entries_saved = saved;

    // Distillation: the first folded case of every distinct signature, in
    // index order. Each clean case carries exactly one signature, so one
    // representative per signature is a minimal covering subset.
    let mut seen = std::collections::BTreeSet::new();
    let mut distilled = Vec::new();
    for record in &folded {
        if let Ok(stats) = &record.outcome {
            if seen.insert(stats.coverage) {
                distilled.push(DistilledCase {
                    index: record.index,
                    seed: record.seed,
                    signature: stats.coverage,
                });
            }
        }
    }

    let shards = outcomes.into_iter().map(|o| o.report).collect();
    CampaignSummary { summary, shards, distilled }
}

/// Emits the distilled corpus into `dir` as ordinary corpus files (one per
/// distilled case, named `distilled_<signature>_seed<seed>.lilac`), each
/// carrying its `//! signature:` directive so replay re-verifies the
/// coverage claim. Returns the written file names in signature order.
///
/// # Errors
///
/// Propagates I/O errors and any case that fails to re-emit (a distilled
/// case came from a clean record, so a failure here is itself an oracle
/// regression).
pub fn write_distilled(
    dir: &std::path::Path,
    distilled: &[DistilledCase],
) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut names = Vec::with_capacity(distilled.len());
    for case in distilled {
        let scenario = crate::scenario::generate(case.seed);
        let text = crate::corpus::emit_case(&scenario).map_err(|f| {
            format!(
                "distilled case seed {} failed to re-emit: {}: {}",
                case.seed, f.oracle, f.detail
            )
        })?;
        let name = format!("distilled_{:04x}_seed{}.lilac", case.signature.0, case.seed);
        std::fs::write(dir.join(&name), &text)
            .map_err(|e| format!("write {}: {e}", dir.join(&name).display()))?;
        names.push(name);
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_exactly() {
        for cases in [0u64, 1, 2, 7, 100, 101] {
            for shards in [1usize, 2, 3, 4, 7, 16] {
                let ranges = shard_ranges(cases, shards);
                let mut next = 0;
                for &(start, len) in &ranges {
                    assert_eq!(start, next, "{cases} cases / {shards} shards");
                    next += len;
                }
                assert_eq!(next, cases, "{cases} cases / {shards} shards must cover the range");
                let lens: Vec<u64> = ranges.iter().map(|r| r.1).collect();
                let (min, max) =
                    (lens.iter().min().copied().unwrap(), lens.iter().max().copied().unwrap());
                assert!(max - min <= 1, "ranges must be balanced: {lens:?}");
            }
        }
    }

    #[test]
    fn zero_shards_degrades_to_one() {
        assert_eq!(shard_ranges(10, 0), vec![(0, 10)]);
    }

    #[test]
    fn more_shards_than_cases_collapses() {
        let ranges = shard_ranges(3, 8);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges, vec![(0, 1), (1, 1), (2, 1)]);
    }
}
