//! The quick ledger: this repo's tree finding and the FK hazard, checked at
//! a reduced budget, and the committed `REPRODUCTION.md` kept in step with
//! the spec table.

use hamlet_bench::specs::{find, SPECS};
use hamlet_bench::Settings;

/// Runs spec `id` at a reduced budget and asserts that each named claim
/// passes.
fn assert_passes(id: &str, names: &[&str]) {
    let quick = Settings {
        scale: 1000,
        runs: 2,
        full: false,
    };
    let claims = (find(id).expect("spec exists").run)(&quick).claims;
    for name in names {
        let c = claims
            .iter()
            .find(|c| c.name == *name)
            .expect("claim exists");
        assert!(c.pass, "{}", c.line(id));
    }
}

#[test]
fn tree_finding_and_fk_hazard_hold_at_a_quick_budget() {
    // JoinAll grows the NoJoin tree, in the simulation and on the
    // emulators; at n_R = 1000 the FK itself is the hazard, and NoFK beats
    // NoJoin by more than ε.
    assert_passes(
        "fig2",
        &["tree-joinall-is-nojoin", "nofk-beats-nojoin-at-nr-1000"],
    );
    assert_passes("table2", &["tree-joinall-is-nojoin"]);
}

#[test]
fn every_spec_has_a_reproduction_section_and_back() {
    let doc = include_str!("../../../REPRODUCTION.md");
    let sections: Vec<&str> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("### "))
        .map(|l| l.split(':').next().unwrap_or(l))
        .collect();
    let ids: Vec<&str> = SPECS.iter().map(|s| s.id).collect();
    assert_eq!(sections, ids);
}
