//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload designs|fuzz|campaign|edit --seed N --seconds S --trace 0|1
//! ```
//!
//! Four closed-loop workloads (one client; `campaign` adds two shard
//! workers), each driving the crates' public APIs with the shipped
//! defaults. The untraced run (`--trace 0`) prints the end-to-end metrics.
//! The traced run (`--trace 1`) replays the ops of an untraced loop with
//! spans around every call into a layer, prints the per-layer metrics and
//! writes the spans to `benchmark/out/`. Every run checks the outputs; the
//! last line of stdout is one JSON object, and the exit code is 1 when a
//! correctness gate broke. See `benchmark/README.md` for the workloads, the
//! metric map and the host facts results are tied to.

mod designs;
mod edit;
mod fuzz;
mod layers;
mod measure;
mod trace;

use designs::{Designs, Qor};
use edit::Edit;
use fuzz::{Campaign, Fuzz};
use measure::{repeated_setup, Gate, Limit, Phase, ProcSnapshot};
use std::process::ExitCode;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

const WORKLOADS: [(&str, &str); 4] = [
    ("designs", "closed loop, 1 client; op = one bundled-design compile (parse -> check -> elaborate -> optimize -> retime -> emit -> estimate)"),
    ("fuzz", "closed loop, 1 client; op = one fuzz case (run_indexed_case + fold_record, 200-case passes under Session::new())"),
    ("campaign", "closed loop, 1 client, 2 shards; op = one fuzz case (200-case run_campaign passes)"),
    ("edit", "closed loop, 1 client; op = parse + CheckService::check_incremental of one editing-session request"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|(name, _)| *name)
                        .find(|name| *name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

/// A constructed workload.
enum Workload {
    Designs(Designs),
    Fuzz(Fuzz),
    Campaign(Campaign),
    Edit(Box<Edit>),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Workload {
        match name {
            "designs" => Workload::Designs(Designs::setup(seed)),
            "fuzz" => Workload::Fuzz(Fuzz::setup(seed)),
            "campaign" => Workload::Campaign(Campaign::setup(seed)),
            _ => Workload::Edit(Box::new(Edit::setup(seed))),
        }
    }

    fn run(&mut self, limit: Limit, tr: &mut Tracer, verify: bool) -> (Phase, Option<Qor>) {
        match self {
            Workload::Designs(w) => w.run(limit, tr, verify),
            Workload::Fuzz(w) => (w.run(limit, tr, verify), None),
            Workload::Campaign(w) => (w.run(limit, tr, verify), None),
            Workload::Edit(w) => (w.run(limit, tr, verify), None),
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
    note: String,
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric { name, value, unit, better, note: note.into() }
}

/// The untraced run: every end-to-end metric.
fn untraced(args: &Args) -> (Phase, Vec<Metric>) {
    let (mut workload, setup_s) =
        repeated_setup(SETUPS, || Workload::setup(args.workload, args.seed));
    measure::reset_peak_rss();
    let (mut phase, qor) =
        workload.run(Limit::Seconds(args.seconds), &mut Tracer::new(false), true);
    let peak_kb = ProcSnapshot::now().vm_hwm_kb;
    drop(workload);
    let (p50, blocks, _) = phase.latency(0.50);
    let (p99, _, beyond) = phase.latency(0.99);
    let samples = format!(
        "{} samples, median over {blocks} block(s) of at least {} ops",
        phase.latencies_ms.len(),
        measure::LATENCY_BLOCK.min(phase.latencies_ms.len())
    );
    let mut metrics = vec![
        metric("setup_s", setup_s, "s", "lower", format!("median of {SETUPS} set-ups")),
        metric(
            "ops_per_s",
            phase.ops_per_s(),
            "ops/s",
            "higher",
            format!(
                "median over {} windows; {} ops in {:.3} s of wall clock overall",
                phase.window_rates.len(),
                phase.ops,
                phase.wall_s
            ),
        ),
        metric("latency_p50_ms", p50, "ms", "lower", samples.clone()),
        metric(
            "latency_p99_ms",
            p99,
            "ms",
            "lower",
            format!("{samples}; at least {beyond} beyond it in each"),
        ),
        metric(
            "peak_rss_mb",
            peak_kb as f64 / 1024.0,
            "MiB",
            "lower",
            "VmHWM over the timed loop and its checks",
        ),
    ];
    // The other workloads compile the designs once, untimed, for the
    // quality-of-result metrics.
    let (qor, source) = match qor {
        Some(q) => (Ok(q), "from the measured compiles"),
        None => (designs::qor_once(), "bundled designs compiled once, untimed"),
    };
    match qor {
        Ok(q) => metrics.extend([
            metric(
                "luts",
                q.luts as f64,
                "count",
                "lower",
                format!("sum over 8 designs, {source}"),
            ),
            metric(
                "registers",
                q.registers as f64,
                "count",
                "lower",
                format!("sum over 8 designs, {source}"),
            ),
            metric(
                "fmax_mhz",
                q.fmax_mhz,
                "MHz",
                "higher",
                format!("geomean over 8 designs, {source}"),
            ),
        ]),
        Err(e) => phase.gates.push(Gate::new("quality of result computed", false, e)),
    }
    (phase, metrics)
}

/// The traced run. An untraced loop for half the time warms the process
/// and fixes the op count; the same ops then run untraced again (process
/// counters, and the baseline for the trace's overhead) and finally traced,
/// with the correctness checks. Every per-layer metric.
fn traced(args: &Args) -> (Phase, Vec<Metric>) {
    let untraced = |limit: Limit| {
        let mut workload = Workload::setup(args.workload, args.seed);
        workload.run(limit, &mut Tracer::new(false), false).0
    };
    let ops = untraced(Limit::Seconds(args.seconds / 2.0)).ops;
    let before = ProcSnapshot::now();
    let baseline = untraced(Limit::Ops(ops));
    let proc = ProcSnapshot::now().since(&before);

    let mut tracer = Tracer::new(true);
    let mut workload = Workload::setup(args.workload, args.seed);
    let (phase, _) = workload.run(Limit::Ops(ops), &mut tracer, true);
    drop(workload);
    let run = layers::TracedRun {
        tracer: &tracer,
        ops: phase.ops,
        untraced_wall_s: baseline.wall_s,
        traced_wall_s: phase.wall_s - tracer.added_s(),
        proc,
    };
    let metrics = layers::compute(&run)
        .into_iter()
        .map(|(m, value)| {
            let note = if value == 0.0 {
                format!("zero: {}", layers::zero_reason(args.workload, m.name))
            } else {
                format!("moves {}", m.moves)
            };
            metric(m.name, value, m.unit, m.better, note)
        })
        .collect();

    println!(
        "spans (per op over {} ops; replay/probe roots are the trace's own extra work):",
        phase.ops
    );
    println!(
        "  {:<24} {:>10} {:>12} {:>12} {:>12}",
        "span", "calls/op", "wall us/op", "self us/op", "blocked us/op"
    );
    let ops = phase.ops.max(1) as f64;
    for (name, agg) in tracer.aggregate() {
        println!(
            "  {name:<24} {:>10.3} {:>12.2} {:>12.2} {:>12.2}",
            agg.calls as f64 / ops,
            agg.wall_ns as f64 * 1e-3 / ops,
            agg.self_ns as f64 * 1e-3 / ops,
            agg.blocked_ns as f64 * 1e-3 / ops,
        );
    }
    if args.workload == "fuzz" {
        println!("  (fuzz: every layer span is a replay of the case's public calls; fuzz.run_case is the op itself)");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written: {}: {e}", path.display()),
    }
    (phase, metrics)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload designs|fuzz|campaign|edit --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Results are tied to the shipped defaults and an optimized build; a run
    // under anything else is refused rather than reported.
    if std::env::var_os("LILAC_THREADS").is_some() {
        eprintln!("error: LILAC_THREADS is set; the benchmark measures the shipped defaults");
        return ExitCode::from(2);
    }
    if cfg!(debug_assertions) {
        eprintln!("error: build with --release; debug-build numbers are not comparable");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let describe = WORKLOADS.iter().find(|(name, _)| *name == args.workload).map_or("", |(_, d)| d);
    println!("host: nproc={nproc} profile=release LILAC_THREADS=unset");
    println!(
        "workload {} seed {} seconds {} trace {}: {describe}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let (phase, metrics) = if args.trace { traced(&args) } else { untraced(&args) };

    for gate in &phase.gates {
        let mark = if gate.ok { "ok  " } else { "FAIL" };
        let detail =
            if gate.detail.is_empty() { String::new() } else { format!(" ({})", gate.detail) };
        println!("gate {mark} {}{detail}", gate.name);
    }
    println!(
        "{:<32} {:>16.6} {:<12} {:<7} failed/attempted: {} of {} ops",
        "error_rate",
        phase.failed as f64 / phase.ops.max(1) as f64,
        "ratio",
        "lower",
        phase.failed,
        phase.ops
    );
    for m in &metrics {
        println!("{:<32} {:>16.6} {:<12} {:<7} {}", m.name, m.value, m.unit, m.better, m.note);
    }

    let correct = phase.correct();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.ops.max(1),
        phase.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
