//! Prints the counterexample report (see `lilac_fuzz::counterexamples`).
//!
//! ```text
//! cargo run --release -p lilac-fuzz --example counterexamples > crates/fuzz/tests/counterexample_baseline.txt
//! ```

fn main() {
    use lilac_fuzz::counterexamples::{report, CASES, SEED};
    print!("{}", report(SEED, CASES));
}
