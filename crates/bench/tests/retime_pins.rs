//! Pins *which* moves the retimer takes on real designs, not only that its
//! result is legal and no slower. For each bundled design (elaborated at
//! its lint-surface top and `optimize`d, as the repo benchmark's `designs`
//! workload compiles it) and each of the paper netlists, the test fixes
//! every [`RetimeStats`] field — critical paths as `f64::to_bits` — and the
//! FNV-1a hash of the retimed netlist's emitted Verilog. A change to how
//! candidates are enumerated, scored, applied or tie-broken shows here as
//! a changed row.
//!
//! On a mismatch the panic message prints the whole table as computed, so
//! an intended change to retiming decisions is a reviewed paste.

use lilac_elab::{elaborate_module, ElabConfig};
use lilac_ir::Netlist;
use lilac_opt::{retime_with_stats, RetimeStats};
use std::collections::BTreeMap;

/// One pinned row: name, the nine `RetimeStats` fields (critical paths as
/// bit patterns), and the FNV-1a hash of the retimed Verilog.
type Row = (&'static str, [u64; 9], u64);

const PINNED: &[Row] = &[
    (
        "Risc3",
        [16, 19, 65, 82, 0, 1, 2, 0x400a7ae147ae147b, 0x4006147ae147ae14],
        0x15a3bf699c3e917b,
    ),
    ("Gbp", [12, 16, 72, 88, 0, 2, 6, 0x400d47ae147ae148, 0x40048f5c28f5c290], 0xf5acf7102bdc2620),
    (
        "Fft8",
        [69, 93, 384, 576, 0, 12, 400, 0x4018d1eb851eb853, 0x4018d1eb851eb853],
        0x11771a860efe931b,
    ),
    (
        "FftF8",
        [32, 32, 256, 256, 0, 0, 0, 0x401247ae147ae148, 0x401247ae147ae148],
        0x1bf482b5253203b3,
    ),
    ("MuxReg", [5, 5, 16, 16, 0, 0, 0, 0x3ff3333333333334, 0x3ff3333333333334], 0xc9295383dee7e4e3),
    (
        "DotPipe",
        [32, 40, 48, 112, 0, 4, 11, 0x402c8a3d70a3d70b, 0x4020dc28f5c28f5c],
        0x96bff60821641650,
    ),
    ("FPU", [7, 7, 65, 65, 0, 0, 0, 0x4016eb851eb851ec, 0x4016eb851eb851ec], 0x6d7851406d539971),
    (
        "DivPipe",
        [4, 4, 208, 208, 0, 0, 0, 0x3ff4cccccccccccd, 0x3ff4cccccccccccd],
        0x940019560f50ee39,
    ),
    (
        "FPU (elaborated, W=32)",
        [7, 7, 65, 65, 0, 0, 0, 0x4016eb851eb851ec, 0x4016eb851eb851ec],
        0x6d7851406d539971,
    ),
    (
        "GBP (elaborated, W=8)",
        [28, 33, 248, 232, 3, 1, 29, 0x400d47ae147ae148, 0x4003d70a3d70a3d7],
        0x61ea41ebfe3f6297,
    ),
    (
        "LA GBP system (N=4)",
        [100, 100, 413, 413, 0, 0, 7, 0x400e147ae147ae15, 0x400e147ae147ae15],
        0xb3ccd26e31dd373a,
    ),
    (
        "LI FPU (4/2)",
        [132, 132, 579, 579, 0, 0, 4, 0x4015f5c28f5c28f6, 0x4015f5c28f5c28f6],
        0x7bbd33fab020a90d,
    ),
    (
        "LI GBP (N=4)",
        [686, 686, 1892, 1892, 0, 0, 18, 0x402a23d70a3d70a4, 0x402a23d70a3d70a4],
        0x8470d6e53427663b,
    ),
];

fn netlists() -> Vec<(&'static str, Netlist)> {
    let mut out = Vec::new();
    for (design, top, width) in lilac_fuzz::lint::design_tops() {
        let program = design.program().expect("bundled design parses");
        let mut params = BTreeMap::from([("W".to_string(), width)]);
        if top == "DotPipe" {
            params.insert("D".to_string(), 2);
        }
        let module = elaborate_module(&program, top, &params, &ElabConfig::default())
            .expect("bundled design elaborates");
        out.push((top, lilac_opt::optimize(&module.netlist)));
    }
    out.extend(lilac_bench::paper_netlists().expect("paper netlists build"));
    out
}

fn fields(s: &RetimeStats) -> [u64; 9] {
    [
        s.nodes_before as u64,
        s.nodes_after as u64,
        s.register_bits_before,
        s.register_bits_after,
        s.forward_moves as u64,
        s.backward_moves as u64,
        s.candidates_scored as u64,
        s.critical_path_before_ns.to_bits(),
        s.critical_path_after_ns.to_bits(),
    ]
}

#[test]
fn retiming_decisions_are_pinned_on_real_designs() {
    let actual: Vec<Row> = netlists()
        .into_iter()
        .map(|(name, n)| {
            let (retimed, stats) = retime_with_stats(&n);
            let verilog = lilac_ir::emit_verilog(&retimed);
            (name, fields(&stats), lilac_fuzz::fnv1a(0, verilog.as_bytes()))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, f, h)| {
            let counts: Vec<String> = f[..7].iter().map(u64::to_string).collect();
            format!(
                "    ({name:?}, [{}, {:#018x}, {:#018x}], {h:#018x}),\n",
                counts.join(", "),
                f[7],
                f[8]
            )
        })
        .collect();
    assert_eq!(actual.as_slice(), PINNED, "retiming decisions changed; computed table:\n{table}");
}

#[test]
fn retiming_is_sound_and_finds_wins() {
    // Whatever the pinned decisions are: retiming never changes a latency
    // and never lengthens the critical path, and at least one real design
    // moves registers for a >10% fmax gain (the elaborated GBP's blend
    // lanes rebalance).
    let mut wins = 0;
    for (name, netlist) in netlists() {
        let (retimed, stats) = retime_with_stats(&netlist);
        assert_eq!(
            retimed.output_min_latencies(),
            netlist.output_min_latencies(),
            "{name}: latency must not change"
        );
        assert!(
            stats.critical_path_after_ns <= stats.critical_path_before_ns + 1e-9,
            "{name}: critical path grew: {stats:?}"
        );
        if stats.moves() >= 1 && stats.fmax_gain_pct() > 10.0 {
            wins += 1;
        }
    }
    assert!(wins >= 1, "no design gains >10% fmax from retiming");
}
