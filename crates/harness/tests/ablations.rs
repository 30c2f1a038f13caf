//! The claims EXPERIMENTS.md draws from the ablations, each checked on
//! the same measurement `mosaic figure <id>` prints. Only the studies
//! that need no grid run here: they stay cheap in a debug build.

use std::sync::OnceLock;

use harness::ablations::{self, Structures};
use machine::Platform;

fn structures() -> &'static Structures {
    static STRUCTURES: OnceLock<Structures> = OnceLock::new();
    STRUCTURES.get_or_init(ablations::structures)
}

#[test]
fn switching_the_pwcs_off_raises_walk_cycles_on_every_platform() {
    let rows = &structures().pwc;
    assert_eq!(rows.len(), Platform::ALL.len());
    for (platform, with, without) in rows {
        assert!(
            without > with,
            "{platform}: C without PWCs {without} must exceed C with them {with}"
        );
    }
}

#[test]
fn only_the_second_walker_pushes_c_over_r_on_broadwell_gups() {
    let c_over_r: Vec<(u32, f64)> = structures()
        .walkers
        .iter()
        .map(|(w, c)| (*w, c.walk_cycles as f64 / c.runtime_cycles as f64))
        .collect();
    assert!(
        matches!(c_over_r[..], [(1, one), (2, two)] if one < 1.0 && two > 1.0),
        "C/R per walker count: {c_over_r:?}"
    );
}

#[test]
fn nested_paging_walks_cost_more_the_smaller_the_host_pages() {
    let walks = ablations::nested_walks(&Platform::SANDY_BRIDGE);
    let c: Vec<(&str, u64)> = walks.iter().map(|(n, c)| (*n, c.walk_cycles)).collect();
    // Rows are native, then 4KB, 2MB and 1GB host pages.
    assert!(
        matches!(c[..], [(_, native), (_, k4), (_, m2), (_, g1)] if k4 > m2 && m2 > g1 && g1 > native),
        "C must fall 4KB host > 2MB host > 1GB host > native: {c:?}"
    );
}

#[test]
fn first_fit_leaves_the_fewest_hole_bytes_and_worst_fit_the_most() {
    // Rows are first, best and worst fit.
    let rows = ablations::fit_policy().rows;
    assert!(
        matches!(rows[..], [(_, _, first), (_, _, best), (_, _, worst)] if first < best && best < worst),
        "hole bytes must rise first < best < worst fit: {rows:?}"
    );
}

#[test]
fn functional_warming_shrinks_blind_samplings_runtime_error() {
    let table = ablations::sampling();
    assert_eq!(table.rows.len(), 4);
    for (workload, blind_r, _, _, warmed_r) in &table.rows {
        assert!(
            warmed_r < blind_r,
            "{workload}: warmed blind R error {warmed_r}% must be below blind {blind_r}%"
        );
    }
}
