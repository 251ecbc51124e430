//! Regenerates Figure 13: resource usage and maximum frequency of the
//! Gaussian blur pyramid implementations, plus the register-retimed
//! frequency of each point (`lilac_opt::retime` — identical latency,
//! rebalanced pipeline stages).

fn main() {
    let rows = lilac_bench::figure13().expect("figure 13 harness");
    println!("Figure 13: GBP resource usage and maximum frequency (Lilac / RV)");
    println!(
        "{:<12} {:>15} {:>17} {:>17} {:>19}",
        "Design (N)", "LUTs", "Registers", "Freq. (MHz)", "Retimed (MHz)"
    );
    for row in &rows {
        println!(
            "{:<12} {:>15} {:>17} {:>17} {:>19}",
            format!("Lilac/RV ({})", row.n),
            format!("{} / {}", row.lilac.luts, row.ready_valid.luts),
            format!("{} / {}", row.lilac.registers, row.ready_valid.registers),
            format!("{:.0} / {:.0}", row.lilac.fmax_mhz, row.ready_valid.fmax_mhz),
            format!("{:.0} / {:.0}", row.lilac_retimed.fmax_mhz, row.ready_valid_retimed.fmax_mhz),
        );
    }
    let s = lilac_bench::summarize_figure13(&rows);
    println!(
        "\nGeometric means: LI uses {:+.1}% LUTs, {:+.1}% registers, {:+.1}% frequency vs Lilac.",
        s.li_lut_overhead_pct, s.li_register_overhead_pct, s.li_fmax_delta_pct
    );
    println!("Paper (Vivado): +26.2% LUTs, +33.0% registers, -6.8% frequency.");
    println!(
        "Retimed points preserve every output latency exactly (asserted by `cargo test -p \
         lilac-bench`, which checks the bundled paper netlists the same way);"
    );
    println!("see EXPERIMENTS.md \"Register retiming\" for which points move and why.");
}
