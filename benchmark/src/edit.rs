//! `edit`: one long-lived `CheckService` serving editing sessions through
//! `check_incremental`.
//!
//! The requests come in passes. A pass holds one editing session per base
//! program: the eight bundled designs plus 200 fuzz-synthesized programs
//! (about one in six sabotaged, so the service must reject it), shuffled by
//! the seed. A session sends the printed original, then each
//! `Mutation::SESSION` edit (`lilac_fuzz::mutate::apply`), each printed and
//! re-parsed. One op is parsing one request's text plus `check_incremental`
//! on it. Building a pass's requests and verifying its verdicts happen
//! between the timed request loops, against the same service.

use crate::layers::solver_counts;
use crate::measure::{millis, secs, Gate, Limit, Phase};
use crate::trace::Tracer;
use lilac_ast::printer::print_program;
use lilac_ast::{parse_program, Program};
use lilac_core::{
    check_program_with, program_component_hashes, CheckOptions, CheckReport, CompLibrary,
};
use lilac_designs::Design;
use lilac_fuzz::mutate::{self, Mutation};
use lilac_fuzz::scenario::generate;
use lilac_fuzz::synth::synthesize;
use lilac_service::{CheckService, ServiceConfig};
use lilac_util::diag::LilacError;
use lilac_util::rng::Rng;
use std::time::Instant;

/// Fuzz-synthesized base programs per pass (beside the eight designs).
const FUZZ_BASES: u64 = 200;

/// One request of an editing session.
struct Request {
    /// Which session and edit this is, for gate reports.
    label: String,
    text: String,
    /// The edit leading to this request keeps every content hash.
    preserves_hashes: bool,
    /// The session's base is a bundled design (else fuzz-synthesized).
    design: bool,
}

/// Builds pass `pass`'s requests. Printing the originals and mutants is
/// traced as `ast.print` under an `input` root.
fn build_pass(seed: u64, pass: u64, tr: &mut Tracer) -> Vec<Request> {
    let root = tr.begin("input");
    let pass_seed = lilac_fuzz::case_seed(seed ^ 0xed17_5e55_1015_0000, pass);
    let mut rng = Rng::new(pass_seed);
    let mut bases: Vec<(String, bool, Program)> = Design::all()
        .into_iter()
        .map(|d| (d.name().to_string(), true, d.program().expect("bundled designs parse")))
        .collect();
    bases.extend((0..FUZZ_BASES).map(|i| {
        let case = lilac_fuzz::case_seed(pass_seed, i);
        (format!("fuzz case {case}"), false, synthesize(&generate(case)).program)
    }));
    for i in (1..bases.len()).rev() {
        bases.swap(i, rng.index(i + 1));
    }
    let mut requests = Vec::with_capacity(bases.len() * (1 + Mutation::SESSION.len()));
    for (name, design, base) in bases {
        let text = tr.leaf("ast.print", || print_program(&base));
        requests.push(Request {
            label: format!("{name}: original"),
            text,
            preserves_hashes: false,
            design,
        });
        let mut current = base;
        for mutation in Mutation::SESSION {
            let mutant = mutate::apply(&current, mutation, &mut rng);
            let text = tr.leaf("ast.print", || print_program(&mutant));
            current = parse_program("edit.lilac", &text).expect("printed mutants re-parse").0;
            requests.push(Request {
                label: format!("{name}: {mutation:?}"),
                text,
                preserves_hashes: mutation.preserves_hashes(),
                design,
            });
        }
    }
    tr.end(root);
    requests
}

/// Verdict equality up to counterexample models: the service and a
/// from-scratch check may enumerate different integer models for the same
/// refuted obligation, so diagnostics compare with their counterexample
/// suffix stripped (the rule the fuzzer's oracles use).
fn verdicts_agree(
    a: &Result<CheckReport, LilacError>,
    b: &Result<CheckReport, LilacError>,
) -> bool {
    fn strip(e: &LilacError) -> Vec<String> {
        e.diagnostics()
            .iter()
            .map(|d| {
                let mut s = format!("{:?}|{}", d.kind, d.message);
                for (note, _) in &d.notes {
                    s.push('|');
                    s.push_str(note.find("counterexample").map_or(note.as_str(), |at| &note[..at]));
                }
                if let Some(at) = s.find("; counterexample") {
                    s.truncate(at);
                }
                s
            })
            .collect()
    }
    match (a, b) {
        (Ok(x), Ok(y)) => x.equivalent(y),
        (Err(x), Err(y)) => strip(x) == strip(y),
        _ => false,
    }
}

/// From-scratch verdicts for `requests`, outside the timed loop. Checked
/// with serial per-component dispatch (oracle 1 pins it equal to the
/// parallel default) and split over two threads, to keep verification
/// cheaper than the loop it verifies.
fn scratch_verdicts(requests: &[Request]) -> Vec<Result<CheckReport, LilacError>> {
    let options = CheckOptions { parallel: false, ..CheckOptions::default() };
    let check = |request: &Request| {
        parse_program("edit.lilac", &request.text)
            .and_then(|(p, _)| check_program_with(&p, &options))
    };
    let (front, back) = requests.split_at(requests.len() / 2);
    std::thread::scope(|scope| {
        let back = scope.spawn(|| back.iter().map(check).collect::<Vec<_>>());
        let mut verdicts: Vec<_> = front.iter().map(check).collect();
        verdicts.extend(back.join().expect("a from-scratch check panicked"));
        verdicts
    })
}

fn fully_clean(verdict: &Result<CheckReport, LilacError>) -> bool {
    matches!(verdict, Ok(r) if r.components.iter().all(|c| c.diagnostics.is_empty() && c.degraded.is_none()))
}

pub struct Edit {
    seed: u64,
    service: CheckService,
    /// The next pass's requests, already built.
    next: Vec<Request>,
}

impl Edit {
    /// Builds pass 0, starts the service with the shipped defaults, and
    /// checks the standard library on it untimed (the program every session
    /// builds on, so set-up does not depend on the seed).
    pub fn setup(seed: u64) -> Edit {
        let next = build_pass(seed, 0, &mut Tracer::new(false));
        let service = CheckService::new(ServiceConfig::default());
        let stdlib = Design::Stdlib.program().expect("the standard library parses");
        let _ = service.check_incremental(&stdlib);
        Edit { seed, service, next }
    }

    pub fn run(&mut self, limit: Limit, tr: &mut Tracer, verify: bool) -> Phase {
        let mut phase = Phase::default();
        let mut verdict_mismatches: Vec<String> = Vec::new();
        let mut hit_violations: Vec<String> = Vec::new();
        let mut design_misses: Vec<String> = Vec::new();
        let stats_before = self.service.stats();
        for pass in 0.. {
            if pass > 0 {
                self.next = build_pass(self.seed, pass, tr);
            }
            let requests = std::mem::take(&mut self.next);
            let mut verdicts = Vec::with_capacity(requests.len());
            let added_before = tr.added_s();
            let loop_start = Instant::now();
            for request in &requests {
                if limit.reached(phase.ops, phase.wall_s + secs(loop_start)) {
                    break;
                }
                tr.set_op(phase.ops);
                let before = self.service.stats();
                let began = Instant::now();
                let op = tr.begin("op");
                let parsed = tr.leaf("ast.parse", || parse_program("edit.lilac", &request.text));
                let verdict = match &parsed {
                    Ok((program, _)) => {
                        tr.blocking("service.check", || self.service.check_incremental(program))
                            .verdict
                    }
                    Err(e) => Err(e.clone()),
                };
                tr.end(op);
                phase.latencies_ms.push(millis(began));
                phase.ops += 1;
                let misses = self.service.stats().report_misses - before.report_misses;
                if let Ok(report) = &verdict {
                    solver_counts(tr, &report.solver_stats());
                }
                if tr.enabled() {
                    if let Ok((program, _)) = &parsed {
                        let probe = tr.begin("probe");
                        if let Ok(lib) =
                            tr.leaf("core.library_build", || CompLibrary::build(program))
                        {
                            let _ = tr.leaf("core.hash", || program_component_hashes(&lib));
                        }
                        tr.end(probe);
                    }
                }
                verdicts.push((verdict, misses));
            }
            let loop_s = secs(loop_start);
            phase.wall_s += loop_s;
            if verdicts.len() == requests.len() {
                phase.close_window(requests.len() as u64, loop_s - tr.added_s() + added_before);
            }
            if verify {
                // Each verdict against a from-scratch check, and each
                // hash-preserving edit of a clean predecessor must miss
                // nothing.
                let scratch = scratch_verdicts(&requests[..verdicts.len()]);
                let mut previous_clean = false;
                for ((request, (verdict, misses)), scratch) in
                    requests.iter().zip(&verdicts).zip(&scratch)
                {
                    let mut failed = false;
                    if !verdicts_agree(verdict, scratch) {
                        verdict_mismatches.push(request.label.clone());
                        failed = true;
                    }
                    if request.preserves_hashes && previous_clean && *misses > 0 {
                        let miss = format!("{} ({misses} missed)", request.label);
                        if request.design {
                            design_misses.push(miss);
                        } else {
                            hit_violations.push(miss);
                            failed = true;
                        }
                    }
                    phase.failed += u64::from(failed);
                    previous_clean = fully_clean(verdict);
                }
            }
            if limit.reached(phase.ops, phase.wall_s) {
                break;
            }
        }
        let stats = self.service.stats();
        tr.count("service.units", (stats.units - stats_before.units) as f64);
        tr.count(
            "service.degraded_units",
            (stats.degraded_units - stats_before.degraded_units) as f64,
        );
        tr.count("service.failed_units", (stats.failed_units - stats_before.failed_units) as f64);
        tr.count("service.report_hits", (stats.report_hits - stats_before.report_hits) as f64);
        tr.count(
            "service.report_misses",
            (stats.report_misses - stats_before.report_misses) as f64,
        );
        if verify {
            phase.gates.push(Gate::new(
                "every verdict equals a from-scratch check_program_with",
                verdict_mismatches.is_empty(),
                format!("{} of {} differ", verdict_mismatches.len(), phase.ops)
                    + &verdict_mismatches.iter().map(|l| format!("; {l}")).collect::<String>(),
            ));
            phase.gates.push(Gate::new(
                "hash-preserving edits of a clean fuzz-synthesized predecessor are 100% report-cache hits",
                hit_violations.is_empty(),
                hit_violations.join("; "),
            ));
            // Oracle 10 pins hash stability on fuzz-synthesized programs
            // only; on the bundled designs a renamed FPU misses (its
            // `ComponentHash` is not rename-invariant), so those sessions
            // are reported here rather than gated.
            design_misses.sort_unstable();
            design_misses.dedup();
            phase.gates.push(Gate::new(
                "bundled-design sessions: hash-preserving edits that missed (reported, not gated)",
                true,
                design_misses.join("; "),
            ));
        }
        phase
    }
}
