//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p dgf-bench --bin repro -- [--scale small|medium|large]
//!                                                 [--only <key>,<key>,…]
//!                                                 [--out results.md]
//! ```
//!
//! `--help` lists the `--only` keys ([`KEYS`]).

use std::io::Write;

use dgf_bench::experiments::{
    ablation_dgf_features, agg_experiment, fig3_write_throughput, groupby_experiment,
    join_experiment, partial_experiment, partition_pressure_experiment, table2_index_size,
    table5_tpch_index, tpch_q6_experiment,
};
use dgf_bench::{BenchScale, MeterLab, ReportTable, TpchLab};
use dgf_common::Stopwatch;

/// The `--only` keys: one per family of tables and figures.
const KEYS: [&str; 9] =
    ["fig3", "table2", "agg", "groupby", "join", "partial", "tpch", "ablation", "partitions"];

struct Args {
    scale: BenchScale,
    only: Option<Vec<String>>,
    out: Option<String>,
    /// `--help`: print the usage and run nothing.
    help: bool,
}

fn usage() -> String {
    format!(
        "usage: repro [--scale small|medium|large] [--only {}] [--out results.md]",
        KEYS.join(",")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut scale = BenchScale::medium();
    let mut only = None;
    let mut out = None;
    let mut help = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                scale = BenchScale::by_name(&v)
                    .ok_or_else(|| format!("unknown scale {v:?} (small|medium|large)"))?;
            }
            "--only" => {
                let v = it.next().ok_or("--only needs a value")?;
                let keys: Vec<String> = v.split(',').map(|s| s.trim().to_owned()).collect();
                if let Some(unknown) = keys.iter().find(|k| !KEYS.contains(&k.as_str())) {
                    return Err(format!("unknown --only key {unknown:?} ({})", KEYS.join("|")));
                }
                only = Some(keys);
            }
            "--out" => out = Some(it.next().ok_or("--out needs a value")?),
            "--help" | "-h" => help = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        scale,
        only,
        out,
        help,
    })
}

fn wanted(only: &Option<Vec<String>>, key: &str) -> bool {
    match only {
        Some(keys) => keys.iter().any(|k| k == key),
        None => true,
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.help {
        println!("{}", usage());
        return;
    }
    if let Err(e) = run(args) {
        eprintln!("repro failed: {e}");
        std::process::exit(1);
    }
}

fn run(args: Args) -> dgf_common::Result<()> {
    let total = Stopwatch::start();
    println!(
        "DGFIndex paper reproduction — scale '{}' ({} meter rows, {} lineitem rows)\n",
        args.scale.name,
        args.scale.meter.row_count(),
        args.scale.tpch.rows
    );
    let mut tables: Vec<ReportTable> = Vec::new();
    let mut emit = |t: ReportTable| {
        println!("{t}");
        tables.push(t);
    };

    if wanted(&args.only, "fig3") {
        emit(fig3_write_throughput(&args.scale)?);
    }
    if wanted(&args.only, "partitions") {
        emit(partition_pressure_experiment()?);
    }

    let need_meter = ["table2", "agg", "groupby", "join", "partial", "ablation"]
        .iter()
        .any(|k| wanted(&args.only, k));
    if need_meter {
        eprintln!("building meter lab (tables, 3 DGF variants, Compact, HadoopDB)...");
        let watch = Stopwatch::start();
        let lab = MeterLab::build(args.scale.clone())?;
        eprintln!("meter lab ready in {:.1}s\n", watch.secs());
        if wanted(&args.only, "table2") {
            emit(table2_index_size(&lab)?);
        }
        if wanted(&args.only, "agg") {
            let (times, records) = agg_experiment(&lab)?;
            emit(records);
            emit(times);
        }
        if wanted(&args.only, "groupby") {
            let (times, records) = groupby_experiment(&lab)?;
            emit(records);
            emit(times);
        }
        if wanted(&args.only, "join") {
            emit(join_experiment(&lab)?);
        }
        if wanted(&args.only, "partial") {
            emit(partial_experiment(&lab)?);
        }
        if wanted(&args.only, "ablation") {
            emit(ablation_dgf_features(&lab)?);
        }
    }

    if wanted(&args.only, "tpch") {
        eprintln!("building TPC-H lab (tables, DGF, Compact-2D/3D)...");
        let watch = Stopwatch::start();
        let lab = TpchLab::build(args.scale.clone())?;
        eprintln!("tpch lab ready in {:.1}s\n", watch.secs());
        emit(table5_tpch_index(&lab)?);
        let (records, times) = tpch_q6_experiment(&lab)?;
        emit(records);
        emit(times);
    }

    if let Some(path) = &args.out {
        let mut f = std::fs::File::create(path)?;
        writeln!(
            f,
            "# DGFIndex reproduction results (scale: {})\n",
            args.scale.name
        )?;
        for t in &tables {
            f.write_all(t.to_markdown().as_bytes())?;
        }
        eprintln!("wrote {} tables to {path}", tables.len());
    }
    eprintln!("\nall experiments done in {:.1}s", total.secs());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn an_unknown_only_key_is_rejected_with_the_valid_keys() {
        let err = parse(&["--only", "agg,fig17"]).err().expect("fig17 is not a key");
        assert!(err.contains("\"fig17\""), "{err}");
        for key in KEYS {
            assert!(err.contains(key), "{err}");
            assert_eq!(parse(&["--only", key]).ok().and_then(|a| a.only), Some(vec![key.to_owned()]));
        }
    }
}
