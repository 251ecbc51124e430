//! Regenerates Figure 8: type-checker performance on the bundled designs,
//! with the solver-effort columns behind each number.
//!
//! `--report` prints the deterministic report instead of the table
//! ([`lilac_bench::report`]: Figure 8's counts, optimizer node counts and
//! warm-recheck replays, no wall clock). It is checked in as
//! `crates/bench/tests/report_baseline.txt`; regenerate it with
//!
//! ```text
//! cargo run --release -p lilac-bench --bin figure8 -- --report > crates/bench/tests/report_baseline.txt
//! ```

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("--report") => {
            print!("{}", lilac_bench::report().expect("deterministic report"));
            return;
        }
        Some(other) => {
            eprintln!("figure8: unknown argument `{other}` (usage: figure8 [--report])");
            std::process::exit(2);
        }
    }
    let rows = lilac_bench::figure8().expect("figure 8 harness");
    println!("Figure 8: Type checker performance");
    println!(
        "{:<30} {:>7} {:>10} {:>12} {:>8} {:>7} {:>9} {:>7} {:>6} {:>13} {:>12}",
        "Design",
        "Lines",
        "Time (ms)",
        "Obligations",
        "Queries",
        "Hits",
        "Hit-rate",
        "Cubes",
        "Lints",
        "Paper lines",
        "Paper (ms)"
    );
    for row in &rows {
        println!(
            "{:<30} {:>7} {:>10.1} {:>12} {:>8} {:>7} {:>8.0}% {:>7} {:>6} {:>13} {:>12}",
            row.design.name(),
            row.lines,
            row.check_time.as_secs_f64() * 1000.0,
            row.obligations,
            row.solver.queries,
            row.solver.cache_hits,
            row.solver.cache_hit_rate() * 100.0,
            row.solver.cubes,
            row.lints,
            row.paper_lines.map_or_else(|| "-".into(), |l| l.to_string()),
            row.paper_time_ms.map_or_else(|| "-".into(), |t| t.to_string()),
        );
    }
    println!("\nNote: the bundled designs are smaller than the paper's (the reproduction");
    println!("captures each design's structure, not its full line count), so times are");
    println!("expected to be correspondingly lower; all designs check in well under a second.");
    println!("Queries/hits/cubes describe the optimized solver pipeline's effort; see");
    println!("EXPERIMENTS.md for the optimized-vs-naive A/B.");
}
