//! Campaign determinism: the sharded driver must merge into the *same*
//! summary — fingerprint first — as the sequential driver, for every shard
//! count, and its distillation pass must cover every coverage signature the
//! full run observed. The checked-in `fuzz/corpus/distilled/` directory is
//! pinned to the 200-case seed-0 campaign these tests run, closing the
//! loop: campaign distillation ↔ checked-in corpus ↔ replay coverage
//! (`tests/corpus.rs` replays the files themselves).

use lilac_fuzz::campaign::{run_campaign, CampaignConfig};
use lilac_fuzz::{run_fuzz, CoverageSignature, FuzzConfig, FuzzSummary};
use std::collections::BTreeSet;

fn assert_summaries_match(seq: &FuzzSummary, got: &FuzzSummary, shards: usize) {
    assert_eq!(
        format!("{:016x}", got.fingerprint),
        format!("{:016x}", seq.fingerprint),
        "campaign fingerprint diverged from sequential at {shards} shard(s)"
    );
    let counters = |s: &FuzzSummary| {
        (
            s.cases,
            s.checked_ok,
            s.rejected,
            s.gen_cases,
            s.sub_cases,
            s.obligations,
            s.queries,
            s.cycles,
        )
    };
    assert_eq!(counters(got), counters(seq), "summary counters diverged at {shards} shard(s)");
    assert_eq!(got.signatures, seq.signatures, "signature histogram diverged at {shards} shard(s)");
    assert!(got.failures.is_empty(), "200 seed-0 cases must stay oracle-clean");
}

#[test]
fn campaign_matches_sequential_for_every_shard_count() {
    let fuzz = FuzzConfig::default(); // 200 cases, seed 0
    let sequential = run_fuzz(&fuzz);
    assert!(!sequential.signatures.is_empty(), "a 200-case run observes signatures");

    let mut distilled_sigs: Option<BTreeSet<CoverageSignature>> = None;
    for shards in [1usize, 2, 4, 7] {
        let campaign = run_campaign(&CampaignConfig { fuzz: fuzz.clone(), shards });
        assert_summaries_match(&sequential, &campaign.summary, shards);
        assert_eq!(
            campaign.shards.len(),
            shards,
            "every requested shard reports (200 cases >= {shards} shards)"
        );
        assert_eq!(
            campaign.shards.iter().map(|s| s.cases).sum::<u64>(),
            fuzz.cases,
            "shard ranges must cover the whole run at {shards} shard(s)"
        );

        // Distillation is a pure function of the folded records, so the
        // distilled set must be shard-invariant too: one case per distinct
        // signature, covering exactly the signatures the full run observed.
        let sigs: BTreeSet<CoverageSignature> =
            campaign.distilled.iter().map(|d| d.signature).collect();
        assert_eq!(
            sigs.len(),
            campaign.distilled.len(),
            "distillation keeps one representative per signature"
        );
        let observed: BTreeSet<CoverageSignature> = sequential.signatures.keys().copied().collect();
        assert_eq!(sigs, observed, "distilled corpus must cover every observed signature");
        if let Some(prev) = &distilled_sigs {
            assert_eq!(*prev, sigs, "distilled set changed between shard counts");
        }
        distilled_sigs = Some(sigs);
    }

    // The checked-in distilled corpus (fuzz/corpus/distilled/) was emitted
    // by `lilac-fuzz campaign --cases 200 --seed 0 --distill` — exactly this
    // run. Its recorded signatures must therefore match the campaign's
    // distilled set file-for-file; `tests/corpus.rs` replays the files.
    let dir =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus/distilled");
    let mut checked_in = BTreeSet::new();
    for entry in std::fs::read_dir(&dir).expect("fuzz/corpus/distilled exists") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|x| x != "lilac") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("distilled file reads");
        let d = lilac_fuzz::corpus::parse_directives(&text).expect("directives parse");
        checked_in.insert(d.signature.expect("distilled cases record a signature"));
    }
    assert_eq!(
        checked_in,
        distilled_sigs.expect("campaign loop ran"),
        "checked-in fuzz/corpus/distilled is stale — regenerate with \
         `cargo run -p lilac-fuzz --release -- campaign --cases 200 --seed 0 --distill fuzz/corpus/distilled`"
    );
}
