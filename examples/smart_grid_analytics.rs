//! Smart-grid analytics: the paper's motivating workload.
//!
//! Generates a month of meter data for a scaled-down province, builds a
//! 3-D DGFIndex on (userId, regionId, time) with pre-computed
//! `sum(powerConsumed)`, and answers the two ad-hoc questions from the
//! paper's §2.1 plus the Listing 5 GROUP BY and Listing 6 JOIN — each
//! compared against a full table scan.
//!
//! ```sh
//! cargo run --release --example smart_grid_analytics
//! ```

use std::sync::Arc;

use dgfindex::prelude::*;
use dgfindex::workload::{
    generate_meter_data, generate_user_info, meter_schema, user_info_schema, MeterConfig,
};

fn show(name: &str, run: &EngineRun, baseline: &EngineRun) {
    let speedup = baseline.stats.total_time().as_secs_f64()
        / run.stats.total_time().as_secs_f64().max(1e-9);
    println!(
        "  {name:<22} -> {}\n    {} ({speedup:.1}x vs scan; scan read {} records)",
        run.result,
        run.stats,
        baseline.stats.data_records_read
    );
}

fn main() -> dgfindex::common::Result<()> {
    let cfg = MeterConfig {
        users: 5_000,
        regions: 11,
        days: 30,
        ..MeterConfig::default()
    };
    println!(
        "generating {} meter records ({} users x {} days, {} regions)...",
        cfg.row_count(),
        cfg.users,
        cfg.days,
        cfg.regions
    );
    let rows = generate_meter_data(&cfg);
    let user_rows = generate_user_info(&cfg);

    let tmp = TempDir::new("smartgrid")?;
    let hdfs = SimHdfs::new(
        tmp.path(),
        HdfsConfig {
            block_size: 1024 * 1024,
            replication: 2,
        },
    )?;
    let ctx = HiveContext::new(hdfs, MrEngine::default());
    let meter = ctx.create_table("meterdata", meter_schema(), FileFormat::Text)?;
    ctx.load_rows(&meter, &rows, 6)?;
    let users = ctx.create_table("user_info", user_info_schema(), FileFormat::Text)?;
    ctx.load_rows(&users, &user_rows, 1)?;

    // One DGFIndex per table (the index *is* a reorganization of it).
    let policy = SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, (cfg.users / 50) as i64),
        DimPolicy::int("region_id", 0, 1),
        DimPolicy::date("ts", cfg.start_day, 1),
    ])?;
    let (index, report) = DgfIndex::build(
        Arc::clone(&ctx),
        Arc::clone(&meter),
        policy,
        vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count],
        Arc::new(MemKvStore::new()),
        "dgf_meter",
    )?;
    println!(
        "DGFIndex built: {} GFUs, {}B, {:?}\n",
        report.index_entries, report.index_size_bytes, report.build_time
    );
    let index = Arc::new(index);
    let dgf = DgfEngine::new(Arc::clone(&index)).with_right(Arc::clone(&users));
    let scan = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&meter)).with_right(users);

    // §2.1 question 1: average power consumption of a user range in a
    // date range.
    let q1 = Query::Aggregate {
        aggs: vec![AggFunc::Avg("power_consumed".into())],
        predicate: Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(100), Value::Int(1000)))
            .and(
                "ts",
                ColumnRange::half_open(
                    Value::Date(parse_date("2012-12-05")?),
                    Value::Date(parse_date("2012-12-20")?),
                ),
            ),
    };
    println!("Q1: average consumption, users 100..1000, Dec 5-20");
    show("DGFIndex", &dgf.run(&q1)?, &scan.run(&q1)?);

    // §2.1 question 2: how many users consumed within a power band.
    let q2 = Query::Aggregate {
        aggs: vec![AggFunc::Count],
        predicate: Predicate::all()
            .and(
                "power_consumed",
                ColumnRange::open(Value::Float(12.0), Value::Float(23.0)),
            )
            .and(
                "ts",
                ColumnRange::half_open(
                    Value::Date(parse_date("2012-12-01")?),
                    Value::Date(parse_date("2012-12-08")?),
                ),
            ),
    };
    println!("\nQ2: readings with power in (12, 23), first week (power is not indexed)");
    show("DGFIndex", &dgf.run(&q2)?, &scan.run(&q2)?);

    // Listing 5: per-day totals for a region.
    let q3 = Query::GroupBy {
        key: "ts".into(),
        aggs: vec![AggFunc::Sum("power_consumed".into())],
        predicate: Predicate::all()
            .and("region_id", ColumnRange::half_open(Value::Int(2), Value::Int(6)))
            .and("user_id", ColumnRange::half_open(Value::Int(0), Value::Int(2500))),
    };
    println!("\nQ3 (Listing 5): daily totals, regions 2..6, first half of users");
    show("DGFIndex", &dgf.run(&q3)?, &scan.run(&q3)?);

    // Listing 6: join with the archive user table.
    let q4 = Query::Join {
        left_key: "user_id".into(),
        right_key: "user_id".into(),
        left_project: vec!["power_consumed".into()],
        right_project: vec!["user_name".into()],
        predicate: Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(40), Value::Int(45)))
            .and(
                "ts",
                ColumnRange::eq(Value::Date(parse_date("2012-12-15")?)),
            ),
    };
    println!("\nQ4 (Listing 6): user names + consumption on Dec 15, users 40..45");
    let first = dgf.run(&q4)?;
    show("DGFIndex", &first, &scan.run(&q4)?);

    // The join's build side is made once per version of `user_info`: the
    // first join read the table, the same join again reads its Slices only.
    let again = dgf.run(&q4)?;
    for (label, run) in [("first join", &first), ("same join again", &again)] {
        println!(
            "  {label:<16} read {} B: {} build(s), {} reuse(s) of the user_info build side",
            run.stats.data_bytes_read, run.stats.scan.join_builds, run.stats.scan.join_build_reuses
        );
    }
    println!(
        "  the dimension table cost the first join {} B",
        first.stats.data_bytes_read - again.stats.data_bytes_read
    );

    Ok(())
}
