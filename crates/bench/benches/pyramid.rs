//! Pyramid bench: KV header reads under flat enumeration vs
//! the aggregate-pyramid decomposition on a ~10⁶-cell inner-heavy query
//! (DESIGN.md §14). Asserts the ≥10× read-reduction acceptance bar
//! and bit-identical inner states, and writes `BENCH_pyramid.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use dgf_bench::pyramid::{pyramid_json, reduction, PyramidConfig, PyramidLab};
use dgf_core::PlanStrategy;

fn bench(c: &mut Criterion) {
    let cfg = PyramidConfig::acceptance();
    let lab = PyramidLab::build(cfg).unwrap();
    println!(
        "pyramid lab: {} leaves, {} nodes built, {} inner cells in the query box",
        lab.leaves,
        lab.nodes_built,
        lab.inner_cells(),
    );

    let scan = lab.read_pass(PlanStrategy::PrefixScan).unwrap();
    let pyr = lab.read_pass(PlanStrategy::Pyramid).unwrap();
    for p in [&scan, &pyr] {
        println!(
            "pyramid [{} inner cells, {}]: {} read ops | {} keys | {} bytes | \
             {} inner gfus | {} nodes | wall {:.3?}",
            lab.inner_cells(),
            p.strategy,
            p.read_ops,
            p.keys_requested,
            p.bytes_read,
            p.inner_gfus,
            p.pyramid_nodes,
            p.wall,
        );
    }

    // Bit-identity first: a read reduction that changed an answer bit
    // would be a bug, not an optimization.
    assert!(!scan.states.is_empty(), "flat pass merged no inner states");
    assert_eq!(
        scan.states, pyr.states,
        "pyramid inner states are not bit-identical to flat enumeration"
    );
    assert_eq!(scan.answers, pyr.answers, "finalized answers diverged");

    // The acceptance bar: ≥10× fewer KV header reads on the
    // inner-heavy query, in round trips and in bytes, vs the scanning
    // baseline.
    for (axis, flat, got) in [
        ("read ops", scan.read_ops, pyr.read_ops),
        ("bytes read", scan.bytes_read, pyr.bytes_read),
    ] {
        let x = reduction(flat, got);
        assert!(
            x >= 10.0,
            "pyramid {axis} reduction is only {x:.1}x ({flat} vs {got}, need >= 10x)"
        );
    }

    let json = pyramid_json(
        "1024x1024 grid, margin-3 box (1018^2 inner cells), 12 levels",
        &lab,
        &scan,
        &pyr,
    );
    let path = std::env::var("DGF_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_pyramid.json").to_owned()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("pyramid: wrote JSON to {path}"),
        Err(e) => eprintln!("pyramid: could not write {path}: {e}"),
    }

    // One criterion-timed sample for regression tracking: a cold
    // pyramid pass (open + plan + finalize).
    c.bench_function("pyramid_readpath_cold_plan", |b| {
        b.iter(|| lab.read_pass(PlanStrategy::Pyramid).unwrap())
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
