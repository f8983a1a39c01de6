//! One function per table/figure of the paper's evaluation (§5), each
//! returning a [`ReportTable`] with the same rows/series the paper plots.

use std::time::Duration;

use dgf_common::{Result, TempDir};
use dgf_query::{Engine, EngineRun, Query};
use dgf_rdbms::{measure_ingest, IngestTarget};
use dgf_workload::{
    aggregation_query, generate_meter_data, group_by_query, join_query, partial_query,
    tpch::q6, MeterConfig, Selectivity,
};

use crate::meter_lab::{IntervalSize, MeterLab};
use crate::report::{fmt_bytes, fmt_count, fmt_secs, ReportTable};
use crate::scale::BenchScale;
use crate::tpch_lab::TpchLab;

/// Run an engine `runs` times; times are averaged, counters come from the
/// final run (they are deterministic anyway).
pub fn run_avg(engine: &dyn Engine, query: &Query, runs: usize) -> Result<EngineRun> {
    let runs = runs.max(1);
    let mut index_time = Duration::ZERO;
    let mut data_time = Duration::ZERO;
    let mut last: Option<EngineRun> = None;
    for _ in 0..runs {
        let r = engine.run(query)?;
        index_time += r.stats.index_time;
        data_time += r.stats.data_time;
        last = Some(r);
    }
    let mut run = last.expect("runs >= 1");
    run.stats.index_time = index_time / runs as u32;
    run.stats.data_time = data_time / runs as u32;
    Ok(run)
}

fn time_cells(run: &EngineRun) -> [String; 3] {
    [
        fmt_secs(run.stats.data_time),
        fmt_secs(run.stats.index_time),
        fmt_secs(run.stats.total_time()),
    ]
}

// ---------------------------------------------------------------------
// Figure 3: DBMS-X vs HDFS write throughput.
// ---------------------------------------------------------------------

/// Figure 3: ingest the same meter records into DBMS-X with a clustered
/// index, DBMS-X without an index, and HDFS; report MB/s.
pub fn fig3_write_throughput(scale: &BenchScale) -> Result<ReportTable> {
    let tmp = TempDir::new("fig3")?;
    let cfg = MeterConfig {
        users: (scale.ingest_rows / 30).max(1),
        days: 30,
        ..scale.meter.clone()
    };
    let rows = generate_meter_data(&cfg);
    let runs = scale.runs.max(2); // ingest is noisy: warm caches, keep the best

    // DBMS-X paths: best of `runs` fresh ingests (the first run pays cold
    // file-system caches).
    let mut btree: Option<dgf_rdbms::IngestReport> = None;
    let mut heap: Option<dgf_rdbms::IngestReport> = None;
    for i in 0..runs {
        let b = measure_ingest(
            &tmp.path().join(format!("dbmsx-indexed-{i}")),
            &rows,
            IngestTarget::BTree { key_col: 0 },
        )?;
        if btree.as_ref().is_none_or(|x| b.mb_per_sec() > x.mb_per_sec()) {
            btree = Some(b);
        }
        let h = measure_ingest(
            &tmp.path().join(format!("dbmsx-plain-{i}")),
            &rows,
            IngestTarget::Heap,
        )?;
        if heap.as_ref().is_none_or(|x| h.mb_per_sec() > x.mb_per_sec()) {
            heap = Some(h);
        }
    }
    let btree = btree.expect("runs >= 1");
    let heap = heap.expect("runs >= 1");

    // HDFS: plain sequential text appends, same best-of-N discipline.
    let hdfs = dgf_storage::SimHdfs::new(
        tmp.path().join("hdfs"),
        dgf_storage::HdfsConfig {
            block_size: scale.block_size,
            replication: 2,
        },
    )?;
    let mut hdfs_mbps = 0f64;
    for i in 0..runs {
        let watch = dgf_common::Stopwatch::start();
        let mut w = dgf_format::TextWriter::create(&hdfs, &format!("/ingest/part-{i}"))?;
        for r in &rows {
            w.write_row(r)?;
        }
        let bytes = w.close()?;
        let mbps = (bytes as f64 / (1024.0 * 1024.0)) / watch.secs().max(1e-9);
        hdfs_mbps = hdfs_mbps.max(mbps);
    }

    let mut t = ReportTable::new(
        "Figure 3: DBMS-X vs HDFS Write Throughput",
        &["system", "throughput (MB/s)", "pages written"],
    );
    t.row(vec![
        "DBMS-X with index".into(),
        format!("{:.1}", btree.mb_per_sec()),
        fmt_count(btree.page_writes),
    ]);
    t.row(vec![
        "DBMS-X without index".into(),
        format!("{:.1}", heap.mb_per_sec()),
        fmt_count(heap.page_writes),
    ]);
    t.row(vec![
        "HDFS".into(),
        format!("{hdfs_mbps:.1}"),
        "-".into(),
    ]);
    t.note(format!(
        "{} records ingested; expected shape: HDFS > DBMS-X(no index) > DBMS-X(index)",
        fmt_count(rows.len() as u64)
    ));
    Ok(t)
}

// ---------------------------------------------------------------------
// Table 2: index size and construction time (meter data).
// ---------------------------------------------------------------------

/// Table 2: index size and construction time for Compact-3D, Compact-2D,
/// and DGF Large/Medium/Small.
pub fn table2_index_size(lab: &MeterLab) -> Result<ReportTable> {
    let mut t = ReportTable::new(
        "Table 2: Index Size and Construction Time",
        &["index", "table type", "dims", "size", "entries", "time"],
    );
    let (_, c3) = lab.build_compact3()?;
    t.row(vec![
        "Compact".into(),
        "RCFile".into(),
        "3".into(),
        fmt_bytes(c3.index_size_bytes),
        fmt_count(c3.index_entries),
        fmt_secs(c3.build_time),
    ]);
    t.row(vec![
        "Compact".into(),
        "RCFile".into(),
        "2".into(),
        fmt_bytes(lab.compact2_report.index_size_bytes),
        fmt_count(lab.compact2_report.index_entries),
        fmt_secs(lab.compact2_report.build_time),
    ]);
    for size in IntervalSize::all() {
        let r = &lab.dgf_reports[size.idx()];
        t.row(vec![
            format!("DGF-{}", size.label()),
            "TextFile".into(),
            "3".into(),
            fmt_bytes(r.index_size_bytes),
            fmt_count(r.index_entries),
            fmt_secs(r.build_time),
        ]);
    }
    let base = lab.ctx.table_size_bytes(&lab.rc_table);
    t.note(format!(
        "RCFile base table: {}; expected shape: Compact-3D ~ base table size, \
         DGF sizes tiny and growing as intervals shrink, DGF build slower than Compact-2D",
        fmt_bytes(base)
    ));
    Ok(t)
}

// ---------------------------------------------------------------------
// Queries at the paper's three selectivities over four engines.
// ---------------------------------------------------------------------

struct EngineSet<'a> {
    lab: &'a MeterLab,
}

impl EngineSet<'_> {
    /// `(name, engine)` in the paper's presentation order. DGF appears
    /// once per interval size, and with `noprecompute` once more at
    /// medium intervals without its headers.
    fn run_all(
        &self,
        query: &Query,
        runs: usize,
        noprecompute: bool,
    ) -> Result<Vec<(String, EngineRun)>> {
        let mut out = Vec::new();
        for size in IntervalSize::all() {
            let e = self.lab.dgf_engine(size);
            out.push((format!("DGF-{}", size.label()), run_avg(&e, query, runs)?));
        }
        if noprecompute {
            let e = self
                .lab
                .dgf_engine(IntervalSize::Medium)
                .without_precompute();
            out.push(("DGF-noprecompute".into(), run_avg(&e, query, runs)?));
        }
        let e = self.lab.compact_engine();
        out.push(("Compact-2D".into(), run_avg(&e, query, runs)?));
        let e = self.lab.hadoopdb_engine();
        out.push(("HadoopDB".into(), run_avg(&e, query, runs)?));
        let e = self.lab.scan_engine();
        out.push(("ScanTable".into(), run_avg(&e, query, runs)?));
        Ok(out)
    }
}

fn selectivity_experiment(
    lab: &MeterLab,
    title_times: &str,
    title_records: &str,
    make_query: impl Fn(&MeterConfig, Selectivity) -> Query,
    noprecompute: bool,
) -> Result<(ReportTable, ReportTable)> {
    let engines = EngineSet { lab };
    let mut times = ReportTable::new(
        title_times,
        &[
            "selectivity",
            "engine",
            "read data+process",
            "read index+other",
            "total",
        ],
    );
    let mut records = ReportTable::new(
        title_records,
        &["index type", "point", "5%", "12%"],
    );
    let mut per_engine: Vec<(String, Vec<String>)> = Vec::new();
    let mut accurate: Vec<String> = Vec::new();
    for sel in Selectivity::paper_settings() {
        let q = make_query(&lab.scale.meter, sel);
        accurate.push(fmt_count(lab.accurate_count(q.predicate())?));
        for (name, run) in engines.run_all(&q, lab.scale.runs, noprecompute)? {
            let [data, index, total] = time_cells(&run);
            times.row(vec![sel.label(), name.clone(), data, index, total]);
            match per_engine.iter_mut().find(|(n, _)| *n == name) {
                Some((_, cells)) => cells.push(fmt_count(run.stats.data_records_read)),
                None => per_engine.push((name, vec![fmt_count(run.stats.data_records_read)])),
            }
        }
    }
    for (name, cells) in per_engine {
        let mut row = vec![name];
        row.extend(cells);
        records.row(row);
    }
    let mut acc_row = vec!["Accurate".to_owned()];
    acc_row.extend(accurate);
    records.row(acc_row);
    Ok((times, records))
}

/// Figures 8–10 (aggregation query time) and Table 3 (records read).
pub fn agg_experiment(lab: &MeterLab) -> Result<(ReportTable, ReportTable)> {
    let (mut times, mut records) = selectivity_experiment(
        lab,
        "Figures 8-10: Aggregation Query Time (point / 5% / 12%)",
        "Table 3: Records Read for Aggregation Query",
        aggregation_query,
        false,
    )?;
    times.note(
        "expected shape: DGF nearly selectivity-independent (pre-computed headers); \
         Compact/HadoopDB degrade toward ScanTable as selectivity grows",
    );
    records.note(
        "expected shape: DGF reads boundary-region records only (<< accurate at 5%/12%); \
         Compact reads whole chosen splits (>> accurate)",
    );
    Ok((times, records))
}

/// Figures 11–13 (GROUP BY time) and Table 4 (records read).
pub fn groupby_experiment(lab: &MeterLab) -> Result<(ReportTable, ReportTable)> {
    let (mut times, mut records) = selectivity_experiment(
        lab,
        "Figures 11-13: Group By Query Time (point / 5% / 12%)",
        "Table 4: Records Read for Group By Query",
        group_by_query,
        true,
    )?;
    times.note(
        "DGF-noprecompute (medium intervals) is the paper's Fig 11: every query-related \
         Slice is read, and DGF still wins ~2-5x; index-read time grows as intervals \
         shrink. The DGF-<size> rows go beyond the paper: GROUP BY time keys one group \
         per one-day cell, so the headers answer each day's inner cells",
    );
    records.note(
        "expected shape: DGF-noprecompute slightly above accurate (the paper's Table 4, \
         boundary over-read); DGF-<size> reads only the boundary region (< accurate at \
         5%/12%); Compact reads whole chosen splits",
    );
    Ok((times, records))
}

/// Figures 14–16: join query time at the three selectivities.
///
/// Every engine runs one untimed point join first. That makes the build
/// sides the timed runs share, so no engine's row carries the one-off
/// read of `user_info`. The warehouse keeps one per version of the table
/// and HadoopDB one per key and projection.
pub fn join_experiment(lab: &MeterLab) -> Result<ReportTable> {
    let warm = join_query(&lab.scale.meter, Selectivity::Point);
    EngineSet { lab }.run_all(&warm, 1, false)?;
    let (mut times, _) = selectivity_experiment(
        lab,
        "Figures 14-16: Join Query Time (point / 5% / 12%)",
        "(records for join — same predicate as Table 4)",
        join_query,
        false,
    )?;
    times.note(
        "DGF-medium reads the records Table 4's DGF-noprecompute reads (same predicate, \
         per the paper)",
    );
    Ok(times)
}

/// Figure 17: partially-specified query — DGF with pre-computation, DGF
/// without, Compact — across interval sizes.
pub fn partial_experiment(lab: &MeterLab) -> Result<ReportTable> {
    let q = partial_query(&lab.scale.meter);
    let mut t = ReportTable::new(
        "Figure 17: Partially-Specified Query Time",
        &["interval size", "engine", "total", "data records"],
    );
    for size in IntervalSize::all() {
        let pre = run_avg(&lab.dgf_engine(size), &q, lab.scale.runs)?;
        let nopre = run_avg(
            &lab.dgf_engine(size).without_precompute(),
            &q,
            lab.scale.runs,
        )?;
        t.row(vec![
            size.label().into(),
            "DGF-precompute".into(),
            fmt_secs(pre.stats.total_time()),
            fmt_count(pre.stats.data_records_read),
        ]);
        t.row(vec![
            size.label().into(),
            "DGF-noprecompute".into(),
            fmt_secs(nopre.stats.total_time()),
            fmt_count(nopre.stats.data_records_read),
        ]);
    }
    let compact = run_avg(&lab.compact_engine(), &q, lab.scale.runs)?;
    t.row(vec![
        "-".into(),
        "Compact-2D".into(),
        fmt_secs(compact.stats.total_time()),
        fmt_count(compact.stats.data_records_read),
    ]);
    t.note(
        "missing userId dimension completed from stored extents (paper §5.3.4); \
         expected shape: DGF-precompute < DGF-noprecompute < Compact",
    );
    Ok(t)
}

// ---------------------------------------------------------------------
// TPC-H (§5.4): Tables 5–6 and Figure 18.
// ---------------------------------------------------------------------

/// Table 5: TPC-H index size and construction time.
pub fn table5_tpch_index(lab: &TpchLab) -> Result<ReportTable> {
    let mut t = ReportTable::new(
        "Table 5: Index Size and Construction Time (TPC-H)",
        &["index", "table type", "dims", "size", "entries", "time"],
    );
    t.row(vec![
        "Compact".into(),
        "RCFile".into(),
        "3".into(),
        fmt_bytes(lab.compact3_report.index_size_bytes),
        fmt_count(lab.compact3_report.index_entries),
        fmt_secs(lab.compact3_report.build_time),
    ]);
    t.row(vec![
        "Compact".into(),
        "RCFile".into(),
        "2".into(),
        fmt_bytes(lab.compact2_report.index_size_bytes),
        fmt_count(lab.compact2_report.index_entries),
        fmt_secs(lab.compact2_report.build_time),
    ]);
    t.row(vec![
        "DGFIndex".into(),
        "TextFile".into(),
        "3".into(),
        fmt_bytes(lab.dgf_report.index_size_bytes),
        fmt_count(lab.dgf_report.index_entries),
        fmt_secs(lab.dgf_report.build_time),
    ]);
    Ok(t)
}

/// Table 6 (records read for Q6) and Figure 18 (Q6 time).
pub fn tpch_q6_experiment(lab: &TpchLab) -> Result<(ReportTable, ReportTable)> {
    let q = q6(1994, 0.06, 24.0);
    let runs = lab.scale.runs;
    let scan = run_avg(&lab.scan_engine(), &q, runs)?;
    let dgf = run_avg(&lab.dgf_engine(), &q, runs)?;
    let dgf_nopre = run_avg(&lab.dgf_engine().without_precompute(), &q, runs)?;
    let c2 = run_avg(&lab.compact2_engine(), &q, runs)?;
    let c3 = run_avg(&lab.compact3_engine(), &q, runs)?;

    let mut records = ReportTable::new(
        "Table 6: Records Read for the TPC-H Workload (Q6)",
        &["index type", "record number"],
    );
    records.row(vec![
        "Whole Table".into(),
        fmt_count(scan.stats.data_records_read),
    ]);
    records.row(vec![
        "Compact-3".into(),
        fmt_count(c3.stats.data_records_read),
    ]);
    records.row(vec![
        "Compact-2".into(),
        fmt_count(c2.stats.data_records_read),
    ]);
    records.row(vec![
        "DGFIndex".into(),
        fmt_count(dgf.stats.data_records_read),
    ]);
    records.row(vec![
        "DGFIndex-noprecompute".into(),
        fmt_count(dgf_nopre.stats.data_records_read),
    ]);
    records.row(vec![
        "Accurate".into(),
        fmt_count(lab.accurate_count(q.predicate())?),
    ]);
    records.note(
        "expected shape: Compact reads (nearly) the whole table — evenly scattered \
         values defeat split filtering; DGF without pre-computation reads slightly \
         more than accurate (the paper's Table 6 setting); with the pre-computed \
         revenue UDF it reads only the boundary region",
    );

    let mut times = ReportTable::new(
        "Figure 18: TPC-H Q6 Query Time",
        &["engine", "read data+process", "read index+other", "total"],
    );
    for (name, run) in [
        ("DGFIndex", &dgf),
        ("Compact-2D", &c2),
        ("Compact-3D", &c3),
        ("ScanTable", &scan),
    ] {
        let [data, index, total] = time_cells(run);
        times.row(vec![name.into(), data, index, total]);
    }
    times.note("expected shape: DGF much faster; Compact slower than scanning");
    Ok((records, times))
}

// ---------------------------------------------------------------------
// Ablations and §2.2 discussion.
// ---------------------------------------------------------------------

/// Ablation: pre-computation and slice-skipping contributions, per
/// selectivity (aggregation query, medium intervals).
pub fn ablation_dgf_features(lab: &MeterLab) -> Result<ReportTable> {
    let mut t = ReportTable::new(
        "Ablation: DGFIndex features (aggregation query, medium intervals)",
        &["selectivity", "variant", "total", "data records"],
    );
    for sel in Selectivity::paper_settings() {
        let q = aggregation_query(&lab.scale.meter, sel);
        let variants: Vec<(&str, EngineRun)> = vec![
            (
                "full",
                run_avg(&lab.dgf_engine(IntervalSize::Medium), &q, lab.scale.runs)?,
            ),
            (
                "no precompute",
                run_avg(
                    &lab.dgf_engine(IntervalSize::Medium).without_precompute(),
                    &q,
                    lab.scale.runs,
                )?,
            ),
            (
                "no slice skipping",
                run_avg(
                    &lab
                        .dgf_engine(IntervalSize::Medium)
                        .without_slice_skipping(),
                    &q,
                    lab.scale.runs,
                )?,
            ),
            (
                "neither",
                run_avg(
                    &lab
                        .dgf_engine(IntervalSize::Medium)
                        .without_precompute()
                        .without_slice_skipping(),
                    &q,
                    lab.scale.runs,
                )?,
            ),
        ];
        for (name, run) in variants {
            t.row(vec![
                sel.label(),
                name.into(),
                fmt_secs(run.stats.total_time()),
                fmt_count(run.stats.data_records_read),
            ]);
        }
    }
    t.note("both features reduce records read; precompute dominates for aggregation");
    Ok(t)
}

/// §2.2 discussion: NameNode memory under multidimensional partitioning.
pub fn partition_pressure_experiment() -> Result<ReportTable> {
    let tmp = TempDir::new("nn")?;
    let mut t = ReportTable::new(
        "Discussion §2.2: NameNode memory of multidimensional partitioning",
        &["partition dims", "distinct per dim", "directories", "NameNode memory"],
    );
    for (dims, card) in [(1usize, 100u64), (2, 32), (3, 10), (3, 100)] {
        // Directories only (no files needed for the arithmetic): create
        // the partition tree the way Hive's dynamic partitioning would.
        let hdfs = dgf_storage::SimHdfs::open(tmp.path().join(format!("d{dims}c{card}")))?;
        if dims == 3 && card == 100 {
            // 1M directories — compute analytically like the paper, do
            // not actually create them.
            let leaf = card.pow(3);
            let dirs = leaf + card.pow(2) + card + 2;
            t.row(vec![
                "3 (analytic)".into(),
                card.to_string(),
                fmt_count(leaf),
                fmt_bytes(dirs * dgf_storage::BYTES_PER_OBJECT),
            ]);
            continue;
        }
        let mut leaves = 0u64;
        let build = |prefix: &str| -> Result<()> {
            hdfs.mkdirs(prefix)?;
            Ok(())
        };
        match dims {
            1 => {
                for a in 0..card {
                    build(&format!("/t/a={a}"))?;
                    leaves += 1;
                }
            }
            2 => {
                for a in 0..card {
                    for b in 0..card {
                        build(&format!("/t/a={a}/b={b}"))?;
                        leaves += 1;
                    }
                }
            }
            _ => {
                for a in 0..card {
                    for b in 0..card {
                        for c in 0..card {
                            build(&format!("/t/a={a}/b={b}/c={c}"))?;
                            leaves += 1;
                        }
                    }
                }
            }
        }
        t.row(vec![
            dims.to_string(),
            card.to_string(),
            fmt_count(leaves),
            fmt_bytes(hdfs.namenode_memory_bytes()),
        ]);
    }
    t.note("paper: 3 dims x 100 values = 1M directories = 143MB of NameNode heap");
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> BenchScale {
        let mut s = BenchScale::small();
        s.meter.users = 200;
        s.meter.days = 10;
        s.tpch.rows = 3_000;
        s.ingest_rows = 3_000;
        s.kv_latency = dgf_kvstore::LatencyModel::ZERO;
        s.hadoopdb.per_chunk_overhead = Duration::ZERO;
        s.runs = 1;
        s
    }

    #[test]
    fn fig3_produces_three_rows() {
        let t = fig3_write_throughput(&tiny_scale()).unwrap();
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn meter_experiments_run_end_to_end() {
        let lab = MeterLab::build(tiny_scale()).unwrap();
        let t2 = table2_index_size(&lab).unwrap();
        assert_eq!(t2.rows.len(), 5);
        let (times, records) = agg_experiment(&lab).unwrap();
        assert_eq!(times.rows.len(), 3 * 6); // 3 selectivities x 6 engines
        assert_eq!(records.rows.len(), 7); // 6 engines + accurate
        let fig17 = partial_experiment(&lab).unwrap();
        assert_eq!(fig17.rows.len(), 7);
        let ab = ablation_dgf_features(&lab).unwrap();
        assert_eq!(ab.rows.len(), 12);
    }

    #[test]
    fn tpch_experiments_run_end_to_end() {
        let lab = TpchLab::build(tiny_scale()).unwrap();
        let t5 = table5_tpch_index(&lab).unwrap();
        assert_eq!(t5.rows.len(), 3);
        let (t6, fig18) = tpch_q6_experiment(&lab).unwrap();
        assert_eq!(t6.rows.len(), 6);
        assert_eq!(fig18.rows.len(), 4);
    }

    #[test]
    fn partition_pressure_matches_arithmetic() {
        let t = partition_pressure_experiment().unwrap();
        assert_eq!(t.rows.len(), 4);
        // The analytic 3x100 row reports ~143MB-scale memory.
        let mem = &t.rows[3][3];
        assert!(mem.ends_with("MB"), "{mem}");
    }
}
