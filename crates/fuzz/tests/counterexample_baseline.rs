//! Pins the counterexamples of every rejected case among the first 200
//! cases of seed 0 to the checked-in golden file
//! (`counterexample_baseline.txt`): each component's rendered error
//! diagnostics, counterexample notes included, and its `enum_assignments`
//! and `cubes`, under both the optimized and the naive checker. A solver
//! change that returns a different model, or searches a different number
//! of assignments, fails here until the file is regenerated and the change
//! reviewed.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p lilac-fuzz --example counterexamples > crates/fuzz/tests/counterexample_baseline.txt
//! ```

use lilac_fuzz::counterexamples::{report, CASES, SEED};

#[test]
fn counterexamples_match_golden_baseline() {
    let golden_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/counterexample_baseline.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("golden baseline exists");
    let got = report(SEED, CASES);
    assert!(
        got == golden,
        "counterexample report diverged from {}:\n--- golden\n{golden}\n--- got\n{got}\n\
         If the change is intended, regenerate with\n\
         `cargo run --release -p lilac-fuzz --example counterexamples > \
         crates/fuzz/tests/counterexample_baseline.txt`",
        golden_path.display()
    );
    // A regenerated golden could still have lost the counterexamples it
    // exists to pin.
    assert!(golden.contains("counterexample"), "no rejected case carries a counterexample");
}
