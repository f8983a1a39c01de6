//! Quickstart: the paper's worked example end to end.
//!
//! Builds the Figure 5 table, constructs a DGFIndex with the paper's
//! splitting policy (A: min 1 interval 3, B: min 11 interval 2) and
//! pre-computed `sum(C)`, then runs the Listing 2 query and shows the
//! inner/boundary decomposition of Figure 7.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use dgfindex::core::index::{paper_figure5_policy, paper_figure5_rows};
use dgfindex::core::all_gfus;
use dgfindex::prelude::*;

fn main() -> dgfindex::common::Result<()> {
    // --- a simulated cluster and a tiny Hive warehouse -----------------
    let tmp = TempDir::new("quickstart")?;
    let hdfs = SimHdfs::open(tmp.path())?;
    let ctx = HiveContext::new(hdfs, MrEngine::new(2));

    let schema = Arc::new(Schema::from_pairs(&[
        ("A", ValueType::Int),
        ("B", ValueType::Int),
        ("C", ValueType::Float),
    ]));
    let table = ctx.create_table("fig5", schema, FileFormat::Text)?;
    ctx.load_rows(&table, &paper_figure5_rows(), 1)?;
    println!("loaded the paper's Figure 5 table: 9 records (A, B, C)");

    // --- CREATE INDEX ... IDXPROPERTIES('A'='1_3','B'='11_2',
    //     'precompute'='sum(C)')  (paper Listing 3) ----------------------
    let (index, report) = DgfIndex::build(
        Arc::clone(&ctx),
        table,
        paper_figure5_policy(),
        vec![AggFunc::Sum("C".into())],
        Arc::new(MemKvStore::new()),
        "dgf_fig5",
    )?;
    println!(
        "built DGFIndex: {} GFUs, {} bytes of index, in {:?}",
        report.index_entries, report.index_size_bytes, report.build_time
    );

    // The GFU key-value pairs of Figure 6.
    println!("\nGFUKey -> (records, slices, paper key)");
    let mut gfus = all_gfus(index.kv.as_ref(), 2)?;
    gfus.sort_by(|a, b| a.0.cmp(&b.0));
    for (key, value) in &gfus {
        // Convert cell coordinates back to the paper's lower-left values.
        let policy = index.policy();
        let a = policy.dims()[0].cell_low(key.cells[0]);
        let b = policy.dims()[1].cell_low(key.cells[1]);
        println!(
            "  cells {:?} = key {a}_{b}: {} record(s), {} slice(s)",
            key.cells,
            value.record_count,
            value.slices.len()
        );
    }

    // --- the Listing 2 query -------------------------------------------
    let query = Query::Aggregate {
        aggs: vec![AggFunc::Sum("C".into())],
        predicate: Predicate::all()
            .and("A", ColumnRange::half_open(Value::Int(5), Value::Int(12)))
            .and("B", ColumnRange::half_open(Value::Int(12), Value::Int(16))),
    };
    let index = Arc::new(index);
    let plan = index.plan(&query, true)?;
    println!(
        "\nListing 2 query decomposition: {} inner header(s) merged \
         ({} records never read), {} boundary GFU(s) scanned",
        plan.inner_gfus, plan.inner_records, plan.boundary_gfus
    );

    let run = DgfEngine::new(index).run(&query)?;
    println!("SELECT SUM(C) WHERE 5<=A<12 AND 12<=B<16  =>  {}", run.result);
    println!("cost: {}", run.stats);
    Ok(())
}
