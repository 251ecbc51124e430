//! The `lilac-fuzz` command-line driver.
//!
//! ```text
//! cargo run --release -p lilac-fuzz -- --cases 2000 --seed 0
//! cargo run --release -p lilac-fuzz -- campaign --cases 2000 --seed 0 --shards 4
//! ```
//!
//! Exit status is non-zero when any oracle disagreed (or a `--replay` seed
//! fell outside the run's seed range). All result output goes to stdout in
//! one atomic write and is bit-for-bit deterministic for a given seed and
//! case count — the `campaign` subcommand's stdout is byte-identical to the
//! sequential driver's for any shard count. Timing, progress, per-shard
//! statistics, and service/fault counters go to stderr.
//!
//! Subcommand:
//!
//! * `campaign` — shard the case range across cores (see
//!   [`lilac_fuzz::campaign`]): same cases, same seeds, same stdout, same
//!   fingerprint; adds `--shards` / `--distill`
//!
//! Flags:
//!
//! * `--cases N` — number of cases (default 200)
//! * `--seed S` — base seed (default 0)
//! * `--shards N` — campaign only: number of shards (default: available
//!   parallelism)
//! * `--distill DIR` — campaign only: write the distilled corpus (first
//!   case of every distinct coverage signature) into `DIR`
//! * `--no-shrink` — report failures without minimizing them
//! * `--failures DIR` — write each shrunk failing case to `DIR`
//! * `--emit-corpus DIR` — regenerate the checked-in corpus into `DIR`
//! * `--emit-retime-corpus DIR` — emit retiming-sensitive corpus cases
//!   (clean scenarios whose elaborated netlist the retimer rewrites) into
//!   `DIR`
//! * `--corpus-count N` — corpus size for `--emit-corpus` *or*
//!   `--emit-retime-corpus` (defaults 20 / 6; rejected when both modes are
//!   requested at once — their defaults differ, so a shared override is
//!   ambiguous)
//! * `--replay CASE_SEED` — re-run one scenario by the derived case seed a
//!   failure report prints, echoing the program and verdict. With an
//!   explicit `--cases`/`--seed` the seed must belong to that run's seed
//!   range; an out-of-range seed prints an empty-run marker and exits
//!   nonzero
//! * `--faults SEED` — run the check-service oracle under the seeded
//!   fault-injection schedule (worker panics, deadline expiries, budget
//!   exhaustion, cache corruption). Verdicts — and therefore the
//!   fingerprint — must not change; service/fault statistics go to stderr
//! * `--cache-file PATH` — restore the service's solver cache from `PATH`
//!   at startup (quarantining it if corrupt) and persist it back at the end
//!   (campaign shards use per-shard suffixed images)
//! * `--incremental` — route the service oracle's requests through the
//!   content-addressed incremental re-checker
//!   (`CheckService::check_incremental`), replaying clean component
//!   verdicts across cases. Verdicts — and therefore stdout and the
//!   fingerprint — must not change; report-cache hit/miss statistics go to
//!   stderr
//! * `--lint` — print the deterministic static-analysis lint report over
//!   the canonical surface (bundled designs, LA/LI wrapper glue, pinned
//!   corpus) and exit; CI diffs this against
//!   `crates/fuzz/tests/lint_baseline.txt`
//!
//! Every flag may appear at most once; flags tied to one mode are rejected
//! in any other (`--shards` without `campaign`, `--emit-corpus` together
//! with `--replay`, ...) with a structured usage error instead of the old
//! silent last-one-wins.

use lilac_fuzz::campaign::{run_campaign_with_progress, CampaignConfig, CampaignSummary};
use lilac_fuzz::{case_seed, run_fuzz_with_progress, FuzzConfig, FuzzSummary};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

struct Args {
    config: FuzzConfig,
    campaign: bool,
    shards: Option<usize>,
    distill: Option<PathBuf>,
    failures_dir: Option<PathBuf>,
    emit_corpus: Option<PathBuf>,
    emit_retime_corpus: Option<PathBuf>,
    corpus_count: Option<usize>,
    replay: Option<u64>,
    lint: bool,
    /// `--cases` appeared explicitly (gates `--replay` range validation:
    /// a bare `--replay SEED` from an old failure report must keep
    /// working without knowing the originating run's size).
    explicit_range: bool,
}

const USAGE: &str = "usage: lilac-fuzz [campaign] [--cases N] [--seed S] [--no-shrink]\n\
                     \x20                 [--max-failures N] [--shards N] [--distill DIR]\n\
                     \x20                 [--faults SEED] [--cache-file PATH] [--incremental]\n\
                     \x20                 [--failures DIR] [--emit-corpus DIR]\n\
                     \x20                 [--emit-retime-corpus DIR] [--corpus-count N]\n\
                     \x20                 [--replay CASE_SEED] [--lint]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: FuzzConfig::default(),
        campaign: false,
        shards: None,
        distill: None,
        failures_dir: None,
        emit_corpus: None,
        emit_retime_corpus: None,
        corpus_count: None,
        replay: None,
        lint: false,
        explicit_range: false,
    };
    let mut seen: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        // Duplicates silently last-won before; every flag (and the
        // subcommand) may now appear at most once.
        if seen.contains(&arg) {
            return Err(format!("`{arg}` given more than once"));
        }
        seen.push(arg.clone());
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "campaign" => args.campaign = true,
            "--cases" => {
                args.config.cases =
                    value("--cases")?.parse().map_err(|e| format!("--cases: {e}"))?;
                args.explicit_range = true;
            }
            "--seed" => {
                args.config.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--no-shrink" => args.config.shrink = false,
            "--max-failures" => {
                args.config.max_failures =
                    value("--max-failures")?.parse().map_err(|e| format!("--max-failures: {e}"))?;
            }
            "--shards" => {
                let n: usize = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
                if n == 0 {
                    return Err("--shards: must be at least 1".to_string());
                }
                args.shards = Some(n);
            }
            "--distill" => args.distill = Some(PathBuf::from(value("--distill")?)),
            "--replay" => {
                args.replay =
                    Some(value("--replay")?.parse().map_err(|e| format!("--replay: {e}"))?);
            }
            "--faults" => {
                args.config.faults =
                    Some(value("--faults")?.parse().map_err(|e| format!("--faults: {e}"))?);
            }
            "--cache-file" => args.config.cache_file = Some(PathBuf::from(value("--cache-file")?)),
            "--incremental" => args.config.incremental = true,
            "--lint" => args.lint = true,
            "--failures" => args.failures_dir = Some(PathBuf::from(value("--failures")?)),
            "--emit-corpus" => args.emit_corpus = Some(PathBuf::from(value("--emit-corpus")?)),
            "--emit-retime-corpus" => {
                args.emit_retime_corpus = Some(PathBuf::from(value("--emit-retime-corpus")?));
            }
            "--corpus-count" => {
                args.corpus_count = Some(
                    value("--corpus-count")?.parse().map_err(|e| format!("--corpus-count: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    validate(&args)?;
    Ok(args)
}

/// Rejects flag combinations that used to be resolved by silent precedence:
/// each invocation is exactly one of a fuzz run, a campaign, a corpus
/// emission, a replay, or a lint report, and mode-specific flags are only
/// legal in their mode.
fn validate(args: &Args) -> Result<(), String> {
    let conflict = |a: &str, b: &str| Err(format!("{a} cannot be combined with {b}"));
    let emitting = args.emit_corpus.is_some() || args.emit_retime_corpus.is_some();
    if args.lint {
        if args.campaign {
            return conflict("--lint", "`campaign`");
        }
        if args.replay.is_some() {
            return conflict("--lint", "--replay");
        }
        if emitting {
            return conflict("--lint", "corpus emission");
        }
    }
    if args.replay.is_some() {
        if args.campaign {
            return conflict("--replay", "`campaign`");
        }
        if emitting {
            return conflict("--replay", "corpus emission");
        }
        if args.failures_dir.is_some() {
            return conflict("--replay", "--failures");
        }
    }
    if args.campaign && emitting {
        return conflict("`campaign`", "corpus emission");
    }
    if !args.campaign {
        if args.shards.is_some() {
            return Err("--shards requires the `campaign` subcommand".to_string());
        }
        if args.distill.is_some() {
            return Err("--distill requires the `campaign` subcommand".to_string());
        }
    }
    match (&args.corpus_count, args.emit_corpus.is_some(), args.emit_retime_corpus.is_some()) {
        (Some(_), true, true) => {
            return Err("--corpus-count is ambiguous with both --emit-corpus and \
                        --emit-retime-corpus (their defaults differ); emit them in two \
                        invocations"
                .to_string());
        }
        (Some(_), false, false) => {
            return Err("--corpus-count requires --emit-corpus or --emit-retime-corpus".to_string());
        }
        _ => {}
    }
    Ok(())
}

/// Renders the run's entire stdout — summary block, failure reports, final
/// verdict line — into one buffer, flushed atomically by the caller. Both
/// the sequential driver and the campaign print exactly this, which is what
/// makes the two byte-diffable.
fn render_summary(seed: u64, summary: &FuzzSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "lilac-fuzz: seed {} cases {}", seed, summary.cases);
    let _ = writeln!(
        out,
        "  verdicts: {} checked, {} rejected (sabotaged)",
        summary.checked_ok, summary.rejected
    );
    let _ = writeln!(
        out,
        "  coverage: {} generator-block cases, {} sub-component cases",
        summary.gen_cases, summary.sub_cases
    );
    let _ = writeln!(
        out,
        "  effort:   {} obligations, {} solver queries, {} simulated cycles",
        summary.obligations, summary.queries, summary.cycles
    );
    let _ = writeln!(out, "  fingerprint: {:016x}", summary.fingerprint);
    for f in &summary.failures {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "FAILURE case {} (seed {}): oracle `{}` — {}",
            f.case_index, f.case_seed, f.oracle, f.detail
        );
        let _ = writeln!(
            out,
            "  shrunk {} -> {} steps in {} probes; minimized program:",
            f.steps_before, f.steps_after, f.probes
        );
        for line in f.program.lines() {
            let _ = writeln!(out, "  | {line}");
        }
    }
    if summary.failures.is_empty() {
        let _ = writeln!(out, "OK: zero oracle disagreements");
    } else {
        let _ = writeln!(out, "FAILED: {} oracle disagreement(s)", summary.failures.len());
    }
    out
}

/// Writes `text` to stdout in one write and flushes — per-run output is
/// atomic, so concurrent stderr progress lines can never interleave with it.
fn print_atomically(text: &str) {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = lock.write_all(text.as_bytes());
    let _ = lock.flush();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.lint {
        // The deterministic lint report over the canonical surface; output
        // is a pure function of the repository, so CI diffs it against the
        // checked-in golden baseline.
        return match lilac_fuzz::lint::report() {
            Ok(lines) => {
                for line in &lines {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let emit = |dir: &PathBuf, files: &[(String, String)], what: &str| -> Result<(), ExitCode> {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return Err(ExitCode::from(2));
        }
        for (name, text) in files {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return Err(ExitCode::from(2));
            }
            println!("wrote {}", path.display());
        }
        println!("{what}: {} cases under {}", files.len(), dir.display());
        Ok(())
    };

    // Both corpus emissions may be requested in one invocation; neither is
    // silently dropped.
    if args.emit_corpus.is_some() || args.emit_retime_corpus.is_some() {
        if let Some(dir) = &args.emit_corpus {
            let files =
                lilac_fuzz::corpus::select(args.config.seed, args.corpus_count.unwrap_or(20));
            if let Err(code) = emit(dir, &files, "corpus") {
                return code;
            }
        }
        if let Some(dir) = &args.emit_retime_corpus {
            let files = lilac_fuzz::corpus::select_retiming(
                args.config.seed,
                args.corpus_count.unwrap_or(6),
            );
            if let Err(code) = emit(dir, &files, "retime corpus") {
                return code;
            }
        }
        return ExitCode::SUCCESS;
    }

    if let Some(replay_seed) = args.replay {
        // With an explicit run range, an out-of-range seed means "this run
        // never contained that case" — a success verdict there would be
        // indistinguishable from a real replay, so mark it and exit
        // nonzero. A bare `--replay SEED` (the form failure reports print)
        // skips the check: the originating run's size is unknown.
        if args.explicit_range {
            let in_range =
                (0..args.config.cases).any(|i| case_seed(args.config.seed, i) == replay_seed);
            if !in_range {
                print_atomically(&format!(
                    "EMPTY RUN: replay seed {replay_seed} is outside the seed range of \
                     (seed {}, cases {}) — nothing was replayed\n",
                    args.config.seed, args.config.cases
                ));
                return ExitCode::from(3);
            }
        }
        // Replay exactly one scenario by its derived case seed (the value a
        // failure report prints), printing the program and the verdict.
        let scenario = lilac_fuzz::scenario::generate(replay_seed);
        let synth = lilac_fuzz::synth::synthesize(&scenario);
        println!("// case seed {replay_seed}");
        println!("{}", lilac_ast::printer::print_program(&synth.program));
        return match lilac_fuzz::oracle::run_case(&scenario, &lilac_fuzz::oracle::Session::new()) {
            Ok(stats) => {
                println!(
                    "OK: checked={} obligations={} cycles={} signature={} ({})",
                    stats.checked_ok,
                    stats.obligations,
                    stats.cycles,
                    stats.coverage,
                    stats.coverage.describe()
                );
                ExitCode::SUCCESS
            }
            Err(f) => {
                println!("FAILURE: oracle `{}` — {}", f.oracle, f.detail);
                ExitCode::FAILURE
            }
        };
    }

    if args.config.cases == 0 {
        // An empty run used to print a success fingerprint (the FNV basis)
        // indistinguishable from a real one; mark it unmistakably instead.
        print_atomically(&format!(
            "EMPTY RUN: 0 cases requested (seed {}) — no fingerprint\n",
            args.config.seed
        ));
        return ExitCode::SUCCESS;
    }

    let start = Instant::now();
    let (summary, campaign): (FuzzSummary, Option<CampaignSummary>) = if args.campaign {
        let shards = args
            .shards
            .unwrap_or_else(|| lilac_util::par::worker_count(args.config.cases as usize));
        let config = CampaignConfig { fuzz: args.config.clone(), shards };
        let last_tick = Mutex::new(Instant::now());
        let cases = args.config.cases;
        let result = run_campaign_with_progress(&config, |done| {
            let mut last = last_tick.lock().expect("progress clock poisoned");
            if last.elapsed().as_secs() >= 5 {
                eprintln!("campaign: {done}/{cases} cases across {shards} shard(s)");
                *last = Instant::now();
            }
        });
        (result.summary.clone(), Some(result))
    } else {
        let mut last_tick = Instant::now();
        let summary = run_fuzz_with_progress(&args.config, |done| {
            if last_tick.elapsed().as_secs() >= 5 {
                eprintln!("... {done}/{} cases", args.config.cases);
                last_tick = Instant::now();
            }
        });
        (summary, None)
    };
    let elapsed = start.elapsed();

    // The whole per-run stdout in one atomic write: sequential and campaign
    // runs of the same (seed, cases) are byte-identical and plain-diffable,
    // whatever the shard layout and whatever stderr does meanwhile.
    print_atomically(&render_summary(args.config.seed, &summary));

    // Service and fault statistics describe *how* verdicts were reached,
    // so they go to stderr: stdout must stay byte-identical between a
    // plain run and a `--faults` / `--incremental` run of the same seed.
    if args.config.faults.is_some() || args.config.cache_file.is_some() || args.config.incremental {
        eprintln!(
            "service: {} fault(s) injected, {} degraded unit(s), {} failed unit(s), {} cache quarantine(s){}",
            summary.faults_injected,
            summary.degraded_units,
            summary.failed_units,
            summary.cache_quarantines,
            match summary.cache_entries_saved {
                Some(n) => format!(", {n} cache entries saved"),
                None => String::new(),
            }
        );
    }
    if args.config.incremental {
        let total = summary.report_hits + summary.report_misses;
        eprintln!(
            "incremental: {} report-cache hit(s), {} miss(es) ({:.1}% hit rate)",
            summary.report_hits,
            summary.report_misses,
            100.0 * summary.report_hits as f64 / (total.max(1)) as f64
        );
    }

    if let Some(campaign) = &campaign {
        for shard in &campaign.shards {
            eprintln!(
                "shard {}: cases {}..{} ({} run), {:.1}s, {:.1} cases/s",
                shard.shard,
                shard.start,
                shard.start + shard.cases,
                shard.cases,
                shard.elapsed_secs,
                shard.cases_per_sec
            );
        }
        eprintln!(
            "campaign: {} distinct signature(s) over {} clean case(s); distilled corpus: {} case(s)",
            campaign.summary.signatures.len(),
            campaign.summary.checked_ok + campaign.summary.rejected,
            campaign.distilled.len()
        );
        if let Some(dir) = &args.distill {
            match lilac_fuzz::campaign::write_distilled(dir, &campaign.distilled) {
                Ok(names) => {
                    for name in &names {
                        eprintln!("distilled: wrote {}", dir.join(name).display());
                    }
                    eprintln!(
                        "distilled: {} case(s) under {} (one per signature)",
                        names.len(),
                        dir.display()
                    );
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    if let Some(dir) = &args.failures_dir {
        if !summary.failures.is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
            }
        }
        for f in &summary.failures {
            let path = dir.join(format!("seed{:020}_{}.lilac", f.case_seed, f.oracle));
            let mut text = format!(
                "// lilac-fuzz failure\n// oracle: {}\n// detail: {}\n// seed: {}\n// reproduce: cargo run --release -p lilac-fuzz -- --replay {}\n\n",
                f.oracle,
                f.detail.replace('\n', "\n//         "),
                f.case_seed,
                f.case_seed,
            );
            text.push_str(&f.program);
            match std::fs::write(&path, &text) {
                Ok(()) => eprintln!("wrote failing case to {}", path.display()),
                Err(e) => eprintln!("error: cannot write {}: {e}", path.display()),
            }
        }
    }

    eprintln!(
        "elapsed: {:.1?} ({:.0} cases/s)",
        elapsed,
        summary.cases as f64 / elapsed.as_secs_f64().max(1e-9)
    );

    if summary.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
