//! The checked-in regression corpus.
//!
//! Each corpus file is a complete Lilac program plus a directive header
//! (ordinary `//!` comments, invisible to the parser) that records how to
//! drive it: the top component, elaboration width, stimulus vectors, and
//! the expected value and latency of every output *as computed when the
//! file was generated*. The corpus therefore pins several independent
//! layers at once: the checker's verdict, elaboration's output parameters,
//! the simulator's cycle-exact values, and — via the vsim, optimizer,
//! retiming, and compiled-simulation oracles inside the shared drive loop —
//! the Verilog backend's, `lilac_opt::optimize`'s, `lilac_opt::retime`'s,
//! and `lilac_sim::CompiledSim`'s cycle-exact behaviour (the retimer
//! additionally pinned to exact per-output latency and a never-worse
//! estimated critical path).
//!
//! Files are generated with `cargo run -p lilac-fuzz -- --emit-corpus
//! fuzz/corpus` and replayed by `tests/corpus.rs` on every `cargo test`.

use crate::oracle::{Failure, Session};
use crate::scenario::Scenario;
use crate::synth::{synthesize, Latency};
use lilac_core::{check_program_with, CheckOptions};
use lilac_elab::{elaborate_module, ElabConfig};
use std::collections::BTreeMap;

/// Parsed directive header of a corpus file.
#[derive(Clone, Debug, Default)]
pub struct Directives {
    /// Generating seed (informational).
    pub seed: u64,
    /// Top component to elaborate.
    pub top: String,
    /// Elaboration width (`#W`).
    pub width: u64,
    /// Input port names in stimulus order.
    pub inputs: Vec<String>,
    /// Whether the program must type-check (`ok`) or be rejected
    /// (`reject`).
    pub expect_check_ok: bool,
    /// Stimulus vectors.
    pub stimuli: Vec<Vec<u64>>,
    /// `(name, latency, expected value per stimulus vector)`.
    pub outputs: Vec<(String, u64, Vec<u64>)>,
    /// Output parameters the elaborated top must bind, e.g. `LG=5`.
    pub out_params: Vec<(String, u64)>,
    /// Coverage signature recorded when the file was generated
    /// ([`crate::CoverageSignature`]); `None` for files predating the
    /// directive. Replay re-derives every bit it can observe from the text
    /// alone and pins them against this record.
    pub signature: Option<crate::CoverageSignature>,
}

fn parse_u64_list(s: &str) -> Result<Vec<u64>, String> {
    s.split(',')
        .map(|v| v.trim().parse::<u64>().map_err(|e| format!("bad number `{v}`: {e}")))
        .collect()
}

/// Parses the `//!` directive header of a corpus file.
pub fn parse_directives(text: &str) -> Result<Directives, String> {
    let mut d = Directives { expect_check_ok: true, ..Directives::default() };
    let mut seen = false;
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("//!") else { continue };
        let rest = rest.trim();
        let Some((key, value)) = rest.split_once(':') else { continue };
        let value = value.trim();
        match key.trim() {
            "fuzz-corpus" => seen = true,
            "seed" => d.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
            "top" => d.top = value.to_string(),
            "width" => d.width = value.parse().map_err(|e| format!("width: {e}"))?,
            "inputs" => {
                d.inputs = value.split(',').map(|s| s.trim().to_string()).collect();
            }
            "expect-check" => d.expect_check_ok = value == "ok",
            "stimulus" => {
                for vec in value.split(';') {
                    d.stimuli.push(parse_u64_list(vec)?);
                }
            }
            "output" => {
                // `o0 latency=2 values=6,12`
                let mut name = String::new();
                let mut latency = 0u64;
                let mut values = Vec::new();
                for (i, field) in value.split_whitespace().enumerate() {
                    if i == 0 {
                        name = field.to_string();
                    } else if let Some(v) = field.strip_prefix("latency=") {
                        latency = v.parse().map_err(|e| format!("latency: {e}"))?;
                    } else if let Some(v) = field.strip_prefix("values=") {
                        values = parse_u64_list(v)?;
                    }
                }
                d.outputs.push((name, latency, values));
            }
            "signature" => {
                // `0x04d3 (checked+pipelined+...)` — only the hex token is
                // semantic; the parenthesized rendering is for humans.
                let token = value.split_whitespace().next().unwrap_or("");
                let bits = u32::from_str_radix(token.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("signature: {e}"))?;
                d.signature = Some(crate::CoverageSignature(bits));
            }
            "out-param" => {
                let (name, v) =
                    value.split_once('=').ok_or_else(|| format!("bad out-param `{value}`"))?;
                d.out_params.push((
                    name.trim().to_string(),
                    v.trim().parse().map_err(|e| format!("out-param: {e}"))?,
                ));
            }
            other => return Err(format!("unknown corpus directive `{other}`")),
        }
    }
    if !seen {
        return Err("missing `//! fuzz-corpus: v1` header".to_string());
    }
    Ok(d)
}

/// Renders a scenario as a corpus file. Clean scenarios embed the expected
/// simulation values; sabotaged scenarios only pin the rejection.
///
/// # Errors
///
/// Returns a description when the scenario itself fails its oracles (such a
/// scenario belongs in a bug report, not the corpus).
pub fn emit_case(scenario: &Scenario) -> Result<String, Failure> {
    let session = Session::without_shared_cache();
    let stats = crate::oracle::run_case(scenario, &session)?;

    let synth = synthesize(scenario);
    let mut head = String::new();
    head.push_str("// Generated by lilac-fuzz; regenerate with:\n");
    head.push_str("//   cargo run -p lilac-fuzz -- --emit-corpus fuzz/corpus\n");
    head.push_str("//! fuzz-corpus: v1\n");
    head.push_str(&format!("//! seed: {}\n", scenario.seed));
    head.push_str(&format!("//! signature: {} ({})\n", stats.coverage, stats.coverage.describe()));
    head.push_str(&format!("//! top: {}\n", synth.top));
    head.push_str(&format!("//! width: {}\n", synth.width));
    head.push_str(&format!("//! inputs: {}\n", synth.inputs.join(",")));
    if synth.expect_check_ok {
        head.push_str("//! expect-check: ok\n");
        let params = BTreeMap::from([("W".to_string(), synth.width)]);
        let module = elaborate_module(&synth.program, synth.top, &params, &ElabConfig::default())
            .map_err(|e| Failure { oracle: "elaborate", detail: e.to_string() })?;
        let stim_text: Vec<String> = scenario
            .stimuli
            .iter()
            .map(|v| v.iter().map(u64::to_string).collect::<Vec<_>>().join(","))
            .collect();
        head.push_str(&format!("//! stimulus: {}\n", stim_text.join("; ")));
        for out in &synth.outputs {
            let latency = match &out.latency {
                Latency::Concrete(t) => *t,
                Latency::OutParam(p) => module.out_params[p],
            };
            let values: Vec<String> = scenario
                .stimuli
                .iter()
                .map(|stim| {
                    let vals = crate::scenario::eval_steps(
                        &scenario.steps,
                        stim,
                        scenario.width,
                        &scenario.subs,
                    );
                    match out.step {
                        Some(s) => vals[s],
                        None => {
                            let (a, b) = scenario.gen_block.expect("og implies gen block");
                            crate::scenario::eval_gen(vals[a], vals[b], scenario.width)
                        }
                    }
                    .to_string()
                })
                .collect();
            head.push_str(&format!(
                "//! output: {} latency={} values={}\n",
                out.name,
                latency,
                values.join(",")
            ));
        }
        for (name, value) in &module.out_params {
            head.push_str(&format!("//! out-param: {name}={value}\n"));
        }
    } else {
        head.push_str("//! expect-check: reject\n");
    }
    head.push('\n');
    head.push_str(&lilac_ast::printer::print_program(&synth.program));
    Ok(head)
}

/// Replays one corpus file: checker A/B (+ expectation), round-trip, the
/// incremental re-checking oracle (the mutation-driven editing session of
/// [`crate::mutate`], incremental verdicts pinned to from-scratch ones),
/// and — for clean cases — elaboration, output-parameter pinning,
/// cycle-exact simulation against the embedded values, the LA/LI wrapper
/// oracle, the Verilog-backend oracle (emit → `lilac-vsim` parse →
/// cycle-compare), the optimizer oracle, the retiming oracle, and the
/// compiled-simulation oracle (all inside the shared
/// `oracle::drive_netlist` loop).
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn run_text(text: &str) -> Result<(), String> {
    let d = parse_directives(text)?;
    let (program, _map) =
        lilac_ast::parse_program("corpus.lilac", text).map_err(|e| format!("parse: {e}"))?;

    // Round-trip.
    let printed = lilac_ast::printer::print_program(&program);
    let (reparsed, _) = lilac_ast::parse_program("corpus-reprint.lilac", &printed)
        .map_err(|e| format!("round-trip parse: {e}"))?;
    if printed != lilac_ast::printer::print_program(&reparsed) {
        return Err("round-trip print mismatch".to_string());
    }

    // Checker A/B.
    let fast = check_program_with(&program, &CheckOptions::default());
    let naive = check_program_with(&program, &CheckOptions::naive());
    match (&fast, &naive) {
        (Ok(a), Ok(b)) => {
            if !a.equivalent(b) {
                return Err("checker pipelines disagree on reports".to_string());
            }
        }
        (Err(a), Err(b)) => {
            if !crate::oracle::errors_agree(a, b) {
                return Err("checker pipelines disagree on rejection diagnostics".to_string());
            }
        }
        _ => return Err("checker pipelines disagree on the verdict".to_string()),
    }
    if fast.is_ok() != d.expect_check_ok {
        return Err(format!(
            "expected {} but the checker said {}",
            if d.expect_check_ok { "ok" } else { "reject" },
            if fast.is_ok() { "ok" } else { "reject" }
        ));
    }

    // The incremental re-checking oracle runs on every replay — rejections
    // included, since a stale accept of a pinned-reject case would be
    // exactly the bug the content hash exists to prevent.
    crate::oracle::incremental_stream(&program, &fast, d.seed)
        .map_err(|f| format!("{}: {}", f.oracle, f.detail))?;

    if !d.expect_check_ok {
        if let Some(sig) = d.signature {
            if sig.0 & crate::CoverageSignature::CHECKED != 0 {
                return Err(format!("signature {sig} claims `checked` on a pinned-reject case"));
            }
        }
        return Ok(());
    }

    // Elaborate and pin output parameters.
    let params = BTreeMap::from([("W".to_string(), d.width)]);
    let module = elaborate_module(&program, &d.top, &params, &ElabConfig::default())
        .map_err(|e| format!("elaborate: {e}"))?;
    for (name, want) in &d.out_params {
        match module.out_params.get(name) {
            Some(got) if got == want => {}
            got => return Err(format!("out-param {name}: recorded {want}, elaborated {got:?}")),
        }
    }

    // Cycle-exact streaming simulation against the recorded values plus the
    // LA/LI oracle — the same drive loop the live fuzzer uses.
    if d.stimuli.is_empty() {
        return Err("clean corpus case has no stimulus directive".to_string());
    }
    let report = crate::oracle::drive_netlist(&module.netlist, &d.inputs, &d.stimuli, &d.outputs)
        .map_err(|f| format!("{}: {}", f.oracle, f.detail))?;

    // Every coverage bit derivable from the file text alone must match the
    // recorded signature. GEN_BLOCK and SUB_COMPONENT describe how the
    // scenario was *generated* — invisible to a replay that starts from the
    // printed program — so they are masked out here; the campaign's
    // distillation test pins them by regenerating the scenario from its
    // seed.
    if let Some(sig) = d.signature {
        let mut got = report.coverage;
        got.set_if(crate::CoverageSignature::CHECKED, true);
        got.set_if(crate::CoverageSignature::WIDE, d.width >= 16);
        let replayable =
            !(crate::CoverageSignature::GEN_BLOCK | crate::CoverageSignature::SUB_COMPONENT);
        let want = crate::CoverageSignature(sig.0 & replayable);
        if got != want {
            return Err(format!(
                "signature mismatch: recorded {want} ({}), replayed {got} ({})",
                want.describe(),
                got.describe()
            ));
        }
    }
    Ok(())
}

/// Picks a diverse set of `count` corpus scenarios starting at `base_seed`:
/// generator-block cases, sub-component cases, sabotaged (reject) cases,
/// and plain pipelines. Returns `(file_name, contents)` pairs.
pub fn select(base_seed: u64, count: usize) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let (mut n_gen, mut n_sub, mut n_reject) = (0usize, 0usize, 0usize);
    let want_gen = count / 4;
    let want_sub = count / 4;
    let want_reject = count / 5;
    let mut seed = base_seed;
    while out.len() < count && seed < base_seed + 100_000 {
        let scenario = crate::scenario::generate(crate::case_seed(seed, 0));
        seed += 1;
        let tag = if scenario.sabotage.is_some() {
            if n_reject >= want_reject {
                continue;
            }
            "reject"
        } else if scenario.gen_block.is_some() {
            if n_gen >= want_gen {
                continue;
            }
            "gen"
        } else if scenario.steps.iter().any(|s| matches!(s, crate::scenario::Step::SubComp { .. }))
        {
            if n_sub >= want_sub {
                continue;
            }
            "sub"
        } else {
            let quota_left = (want_gen - n_gen) + (want_sub - n_sub) + (want_reject - n_reject);
            if out.len() + quota_left >= count {
                continue;
            }
            "plain"
        };
        match emit_case(&scenario) {
            Ok(text) => {
                match tag {
                    "gen" => n_gen += 1,
                    "sub" => n_sub += 1,
                    "reject" => n_reject += 1,
                    _ => {}
                }
                out.push((format!("seed{:05}_{tag}.lilac", seed - 1), text));
            }
            Err(_) => continue, // a failing scenario is a bug, not a corpus case
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Picks `count` *retiming-sensitive* corpus scenarios starting at
/// `base_seed`: clean cases whose elaborated netlist the retimer actually
/// rewrites (at least one accepted move — unbalanced pipelines, register
/// cuts behind fan-in, `Concat`/part-select at stage boundaries), so
/// replaying them exercises the seventh differential oracle beyond its
/// legality bail-outs. Returns `(file_name, contents)` pairs tagged
/// `_retime`.
pub fn select_retiming(base_seed: u64, count: usize) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut seed = base_seed;
    while out.len() < count && seed < base_seed + 100_000 {
        let scenario = crate::scenario::generate(crate::case_seed(seed, 0));
        seed += 1;
        if scenario.sabotage.is_some() {
            continue;
        }
        let synth = synthesize(&scenario);
        let params = BTreeMap::from([("W".to_string(), synth.width)]);
        let Ok(module) =
            elaborate_module(&synth.program, synth.top, &params, &ElabConfig::default())
        else {
            continue;
        };
        let (_, stats) = lilac_opt::retime_with_stats(&module.netlist);
        // Strictly-shortened critical path required, not just accepted
        // moves: the lexicographic driver can accept endpoint-only moves
        // (tied lanes where only one is retimable), and the corpus test
        // asserts the stronger property on every replay.
        if stats.moves() == 0 || stats.critical_path_after_ns >= stats.critical_path_before_ns {
            continue;
        }
        if let Ok(text) = emit_case(&scenario) {
            out.push((format!("seed{:05}_retime.lilac", seed - 1), text));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate;

    #[test]
    fn emitted_cases_replay() {
        let mut done = 0;
        let mut seed = 0;
        while done < 6 && seed < 200 {
            let scenario = generate(crate::case_seed(seed, 0));
            seed += 1;
            if let Ok(text) = emit_case(&scenario) {
                run_text(&text).unwrap_or_else(|e| {
                    panic!("seed {} corpus text fails to replay: {e}\n{text}", seed - 1)
                });
                done += 1;
            }
        }
        assert!(done >= 6, "not enough emittable cases in 200 seeds");
    }

    #[test]
    fn directive_parser_round_trips() {
        let text = "//! fuzz-corpus: v1\n//! seed: 9\n//! signature: 0x0421 (checked)\n\
                    //! top: Top\n//! width: 8\n\
                    //! inputs: i0,i1\n//! expect-check: ok\n//! stimulus: 1,2; 3,4\n\
                    //! output: o0 latency=3 values=5,6\n//! out-param: LG=4\n";
        let d = parse_directives(text).unwrap();
        assert_eq!(d.seed, 9);
        assert_eq!(d.signature, Some(crate::CoverageSignature(0x0421)));
        assert_eq!(d.width, 8);
        assert_eq!(d.inputs, vec!["i0", "i1"]);
        assert!(d.expect_check_ok);
        assert_eq!(d.stimuli, vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(d.outputs, vec![("o0".to_string(), 3, vec![5, 6])]);
        assert_eq!(d.out_params, vec![("LG".to_string(), 4)]);
    }
}
