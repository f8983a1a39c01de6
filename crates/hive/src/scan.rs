//! The MapReduce scan executor shared by every Hive-side query path.
//!
//! An index's entire contribution is the list of [`ScanInput`]s it
//! produces: the full-table scan feeds every split, the Compact Index
//! feeds a subset of splits, the Bitmap Index feeds splits plus row
//! filters, and DGFIndex feeds byte ranges (Slices). Execution itself is
//! identical: one map task per input, predicate filter, [`RowSink`]
//! accumulation, final merge. So is a baseline's measured run: each
//! Hive-side engine plans a [`ScanPlan`] and hands it to one function
//! that scans it and fills [`RunStats`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dgf_common::obs::{names, Profiler, SpanGuard};
use dgf_common::stats::ScanSnapshot;
use dgf_common::{Result, Row, Stopwatch};
use dgf_format::{Bitmap, ByteRange, FileFormat, RcReader, TextReader};
use dgf_query::{AggFunc, Engine, EngineRun, Query, RowSink, RunStats};
use dgf_storage::FileSplit;

use crate::context::{HiveContext, TableDesc, TableRef};

/// One unit of work for a scan map task.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanInput {
    /// Read a whole split (scan baseline; Compact Index granularity).
    FullSplit(FileSplit),
    /// Read only these byte ranges of a text file (DGFIndex Slices,
    /// already clipped to this task's split).
    TextRanges {
        /// The file.
        path: String,
        /// Coalesced, sorted ranges.
        ranges: Vec<ByteRange>,
    },
    /// Read a split of an RCFile with per-group row bitmaps (Bitmap
    /// Index). Groups absent from the map are skipped.
    RcFiltered {
        /// The split.
        split: FileSplit,
        /// Group offset → rows to keep.
        row_filter: HashMap<u64, Bitmap>,
    },
    /// Read only the row groups starting inside these byte ranges of an
    /// RCFile (DGFIndex Slices over RCFile-format reorganized data).
    RcRanges {
        /// The file.
        path: String,
        /// Coalesced, sorted group-aligned ranges.
        ranges: Vec<ByteRange>,
    },
    /// [`RcRanges`](Self::RcRanges) further narrowed by a per-slice
    /// sidecar index (DESIGN.md §15): within the Slice byte ranges, only
    /// the row groups present in `row_filter` are read, and each is
    /// compacted to the rows its bitmap admits.
    RcPruned {
        /// The file.
        path: String,
        /// Coalesced, sorted group-aligned ranges (the unpruned Slices).
        ranges: Vec<ByteRange>,
        /// Group offset → rows that may match. Groups inside `ranges`
        /// but absent here were pruned by zone maps or bitmaps.
        row_filter: HashMap<u64, Bitmap>,
    },
}

impl ScanInput {
    /// The file this input reads.
    pub fn path(&self) -> &str {
        match self {
            ScanInput::FullSplit(split) | ScanInput::RcFiltered { split, .. } => &split.path,
            ScanInput::TextRanges { path, .. }
            | ScanInput::RcRanges { path, .. }
            | ScanInput::RcPruned { path, .. } => path,
        }
    }
}

/// The one reader of one input, as [`open_input`] makes it: there is one
/// reader per format. A query drains an RCFile's row groups in decoded
/// batches ([`RcReader::next_batch`]) and a text file's lines row by row;
/// everything else — index builds, compaction, [`HiveContext::read_all`]
/// — reads rows through [`Self::for_each_row`].
pub enum InputReader {
    /// Row groups of an RCFile.
    Rc(Box<RcReader>),
    /// Lines of a text file.
    Text(Box<TextReader>),
}

impl InputReader {
    /// Hand `f` every row with its Hive block offset: the start of its
    /// row group for an RCFile, of its line for text. An RCFile reader
    /// lends the one batch it decodes every group into, and the drain
    /// copies it row by row into one scratch row, so it allocates neither
    /// per row nor per group (a string cell still allocates its copy).
    pub fn for_each_row(self, mut f: impl FnMut(u64, &Row) -> Result<()>) -> Result<()> {
        match self {
            InputReader::Rc(mut reader) => {
                let mut row = Row::new();
                while let Some(batch) = reader.next_batch()? {
                    for i in 0..batch.len() {
                        batch.read_row_into(i, &mut row);
                        f(batch.group_offset(), &row)?;
                    }
                }
            }
            InputReader::Text(mut reader) => {
                while let Some((offset, row)) = reader.next_with_offset()? {
                    f(offset, &row)?;
                }
            }
        }
        Ok(())
    }
}

/// Open the reader for one input of `table` — the one place a table's
/// format picks a reader. An RCFile takes its footer from the context,
/// which reads it once per file version (DESIGN.md §12).
pub fn open_input(ctx: &HiveContext, table: &TableDesc, input: &ScanInput) -> Result<InputReader> {
    let schema = table.schema.clone();
    let text = |path: &str, ranges: Vec<ByteRange>| {
        InputReader::Text(Box::new(TextReader::open(&ctx.hdfs, schema.clone(), path, ranges)))
    };
    let open_rc = |split: &FileSplit| {
        RcReader::open_with_footer(&ctx.hdfs, schema.clone(), split, ctx.footer(&split.path)?)
    };
    let whole_file = |path: &String| -> Result<FileSplit> {
        Ok(FileSplit::new(path.clone(), 0, ctx.hdfs.file_len(path)?))
    };
    let rc = |reader: RcReader| InputReader::Rc(Box::new(reader));
    Ok(match input {
        ScanInput::FullSplit(split) => match table.format {
            FileFormat::Text => text(&split.path, vec![ByteRange::new(split.start, split.end())]),
            FileFormat::RcFile => rc(open_rc(split)?),
        },
        ScanInput::TextRanges { path, ranges } => text(path, ranges.clone()),
        ScanInput::RcFiltered { split, row_filter } => {
            rc(open_rc(split)?.with_row_filter(row_filter.clone()))
        }
        ScanInput::RcRanges { path, ranges } => {
            rc(open_rc(&whole_file(path)?)?.with_group_ranges(ranges))
        }
        ScanInput::RcPruned {
            path,
            ranges,
            row_filter,
        } => rc(open_rc(&whole_file(path)?)?
            .with_group_ranges(ranges)
            .with_row_filter(row_filter.clone())),
    })
}

/// Run `query` over the given inputs and return the merged [`RowSink`]
/// before finalization: the caller finishes it, and DGFIndex first merges
/// its pre-computed inner-region headers and pushes its unflushed rows
/// into it.
///
/// What is per query is made once, here: the sink (each map task fills an
/// empty [`RowSink::sibling`]). A join's build side (broadcast to every
/// map task, as in a Hive map join) and an RCFile's footer
/// are not per query but per version of what they are read from: the
/// sink takes the build side from [`HiveContext::join_table`] and each
/// reader its footer from the context's footer map, which read only what
/// no earlier query read for the current files (DESIGN.md §12).
///
/// An RCFile input is drained in decoded batches through the selection
/// and aggregate kernels, a text input row by row.
pub fn execute_sink(
    ctx: &HiveContext,
    table: &TableDesc,
    query: &Query,
    right: Option<&TableDesc>,
    inputs: Vec<ScanInput>,
) -> Result<RowSink> {
    let build = match (query, right) {
        (
            Query::Join {
                right_key,
                right_project,
                ..
            },
            Some(r),
        ) => Some((&*r.schema, ctx.join_table(r, right_key, right_project)?)),
        _ => None,
    };
    let total = RowSink::new(query, &table.schema, build)?;
    let bound = query.predicate().bind(&table.schema)?;
    let projection = columnar_projection(query, table)?;

    let job = ctx.engine.map_only(inputs, &|_, input: ScanInput| {
        let mut sink = total.sibling();
        match open_input(ctx, table, &input)? {
            InputReader::Rc(reader) => {
                let mut reader = reader.with_scan_stats(ctx.scan_stats.clone());
                if let Some(p) = &projection {
                    reader = reader.with_projection(p.clone());
                }
                // Batches of a few dozen rows take a few microseconds
                // each: the sub-microsecond part carries over. One
                // selection buffer serves every batch of the task.
                let mut carry = std::time::Duration::ZERO;
                let mut rows = Vec::new();
                while let Some(batch) = reader.next_batch()? {
                    let kernel = std::time::Instant::now();
                    let sel = bound.select(batch, &mut rows);
                    ctx.scan_stats.rows_selected.add(sel.len() as u64);
                    sink.push_batch(batch, &sel)?;
                    ctx.scan_stats
                        .kernel_us
                        .add_micros(&mut carry, kernel.elapsed());
                }
            }
            text => {
                let mut rows = 0u64;
                text.for_each_row(|_, row| {
                    rows += 1;
                    sink.push_if(row, &bound).map(drop)
                })?;
                ctx.scan_stats.rowwise_rows.add(rows);
            }
        }
        Ok(sink)
    })?;

    let mut sinks = job.outputs.into_iter();
    let mut total = sinks.next().unwrap_or(total);
    for s in sinks {
        total.merge(s)?;
    }
    Ok(total)
}

/// The column indexes an RCFile scan must decode for `query`: predicate
/// columns plus whatever the sink reads. `None` means decode everything
/// (unconstrained SELECT, or a UDF aggregate that may read any column).
fn columnar_projection(query: &Query, table: &TableDesc) -> Result<Option<Vec<usize>>> {
    let mut cols: Vec<usize> = Vec::new();
    for c in query.predicate().columns() {
        cols.push(table.schema.index_of(c)?);
    }
    let mut add_aggs = |aggs: &[AggFunc]| -> Result<bool> {
        for a in aggs {
            match a {
                AggFunc::Count => {}
                AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) | AggFunc::Avg(c) => {
                    cols.push(table.schema.index_of(c)?);
                }
                // A UDF reads whole rows; decode every column.
                AggFunc::Udf(_) => return Ok(false),
            }
        }
        Ok(true)
    };
    match query {
        Query::Aggregate { aggs, .. } => {
            if !add_aggs(aggs)? {
                return Ok(None);
            }
        }
        Query::GroupBy { key, aggs, .. } => {
            if !add_aggs(aggs)? {
                return Ok(None);
            }
            cols.push(table.schema.index_of(key)?);
        }
        Query::Join {
            left_key,
            left_project,
            ..
        } => {
            cols.push(table.schema.index_of(left_key)?);
            for c in left_project {
                cols.push(table.schema.index_of(c)?);
            }
        }
        Query::Select { project, .. } => {
            if project.is_empty() {
                return Ok(None);
            }
            for c in project {
                cols.push(table.schema.index_of(c)?);
            }
        }
    }
    cols.sort_unstable();
    cols.dedup();
    Ok(Some(cols))
}

/// Attach a columnar-scan delta to a profile span as `scan.decode` /
/// `scan.kernel` children plus metrics, so
/// `dgf profile` reconciles kernel work against batch counts. Engines call
/// this on their `query.scan` span with the delta of
/// [`HiveContext::scan_stats`] across the run. A join that looked its
/// build side up carries both join counters on the span itself, zeros
/// included, so the span says whether the join paid for its dimension
/// table; a scan that opened an RCFile carries both footer counters the
/// same way, so it says whether the query re-read file metadata.
pub fn attach_scan_to_span(span: &SpanGuard, delta: &ScanSnapshot) {
    if delta.rowwise_rows > 0 {
        span.add(names::SCAN_ROWWISE_ROWS, delta.rowwise_rows);
    }
    if delta.join_builds + delta.join_build_reuses > 0 {
        span.add(names::SCAN_JOIN_BUILDS, delta.join_builds);
        span.add(names::SCAN_JOIN_BUILD_REUSES, delta.join_build_reuses);
    }
    if delta.footer_reads + delta.footer_reuses > 0 {
        span.add(names::SCAN_FOOTER_READS, delta.footer_reads);
        span.add(names::SCAN_FOOTER_REUSES, delta.footer_reuses);
    }
    if delta.batches == 0 {
        return;
    }
    let decode = span.child("scan.decode");
    decode.add(names::SCAN_BATCHES, delta.batches);
    decode.add(names::SCAN_ROWS_DECODED, delta.rows_decoded);
    decode.add(names::SCAN_DECODE_US, delta.decode_us);
    decode.finish();
    let kernel = span.child("scan.kernel");
    kernel.add(names::SCAN_ROWS_SELECTED, delta.rows_selected);
    kernel.add(names::SCAN_KERNEL_US, delta.kernel_us);
    kernel.finish();
}

/// What an engine's planning chose to read, and what choosing cost.
#[derive(Debug, Clone, Default)]
pub struct ScanPlan {
    /// The inputs to scan.
    pub inputs: Vec<ScanInput>,
    /// All base-table splits.
    pub splits_total: u64,
    /// Index-table rows read while planning.
    pub index_records_read: u64,
    /// Time spent planning: index scan and split selection.
    pub index_time: Duration,
}

impl ScanPlan {
    /// Run `choose`, which returns the inputs and the split total, and
    /// measure what it cost.
    pub(crate) fn measure(
        ctx: &HiveContext,
        choose: impl FnOnce() -> Result<(Vec<ScanInput>, u64)>,
    ) -> Result<ScanPlan> {
        let watch = Stopwatch::start();
        let before = ctx.hdfs.stats().snapshot();
        let (inputs, splits_total) = choose()?;
        Ok(ScanPlan {
            inputs,
            splits_total,
            index_records_read: ctx.hdfs.stats().snapshot().since(&before).records_read,
            index_time: watch.elapsed(),
        })
    }
}

/// The one measured run of every split-reading engine: plan, scan what
/// the plan chose of `table` with [`execute_sink`], and report it. The
/// run records a `query` span with a `query.scan` child under `profiler`:
/// the scan's storage and scan counters go on `query.scan`, planning's
/// (an index-table probe) on `query` itself, so the profile's totals are
/// the whole run's. Its `scan` ledger and `retries_absorbed` cover the
/// whole run too, and its data counts the scan alone.
pub(crate) fn measured_run(
    ctx: &HiveContext,
    table: &TableDesc,
    right: Option<&TableDesc>,
    profiler: &Profiler,
    query: &Query,
    plan: impl FnOnce() -> Result<ScanPlan>,
) -> Result<EngineRun> {
    let stats_block = ctx.hdfs.stats();
    let (start, scan_start) = (stats_block.snapshot(), ctx.scan_stats.snapshot());
    let prof = profiler.fork();
    let root = prof.span("query");
    let plan = plan()?;
    let (before, scan_before) = (stats_block.snapshot(), ctx.scan_stats.snapshot());
    before.since(&start).attach_to_span(&root);
    attach_scan_to_span(&root, &scan_before.since(&scan_start));
    let watch = Stopwatch::start();
    let splits_read = plan.inputs.len() as u64;
    let scan_span = root.child("query.scan");
    let result = execute_sink(ctx, table, query, right, plan.inputs)?.finish();
    let scan_end = ctx.scan_stats.snapshot();
    let end = stats_block.snapshot();
    let delta = end.since(&before);
    delta.attach_to_span(&scan_span);
    attach_scan_to_span(&scan_span, &scan_end.since(&scan_before));
    scan_span.finish();
    root.finish();
    Ok(EngineRun {
        result,
        stats: RunStats {
            index_time: plan.index_time,
            data_time: watch.elapsed(),
            index_records_read: plan.index_records_read,
            data_records_read: delta.records_read,
            data_bytes_read: delta.bytes_read,
            splits_total: plan.splits_total,
            splits_read,
            retries_absorbed: end.since(&start).retries,
            profile: prof.take_profile(),
            scan: scan_end.since(&scan_start),
            ..RunStats::default()
        },
    })
}

/// The full-table-scan baseline (the paper's "ScanTable-based" style).
pub struct ScanEngine {
    ctx: Arc<HiveContext>,
    table: TableRef,
    right: Option<TableRef>,
    profiler: Profiler,
}

impl ScanEngine {
    /// A scan engine over `table`. Honours `DGF_TRACE` for profiling;
    /// see [`with_profiler`](Self::with_profiler).
    pub fn new(ctx: Arc<HiveContext>, table: TableRef) -> Self {
        ScanEngine {
            ctx,
            table,
            right: None,
            profiler: Profiler::from_env(),
        }
    }

    /// Attach the dimension table used by join queries.
    pub fn with_right(mut self, right: TableRef) -> Self {
        self.right = Some(right);
        self
    }

    /// Collect a [`dgf_common::obs::QueryProfile`] per run with this
    /// profiler (forked per query), instead of the `DGF_TRACE` default.
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }
}

impl Engine for ScanEngine {
    fn name(&self) -> String {
        "ScanTable".to_owned()
    }

    fn run(&self, query: &Query) -> Result<EngineRun> {
        let (ctx, table) = (&self.ctx, &self.table);
        measured_run(ctx, table, self.right.as_deref(), &self.profiler, query, || {
            let splits = ctx.table_splits(table);
            Ok(ScanPlan {
                splits_total: splits.len() as u64,
                inputs: splits.into_iter().map(ScanInput::FullSplit).collect(),
                ..ScanPlan::default()
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{Schema, TempDir, Value, ValueType};
    use dgf_mapreduce::MrEngine;
    use dgf_query::{ColumnRange, Predicate, QueryResult};
    use dgf_storage::{HdfsConfig, SimHdfs};

    fn setup(format: FileFormat) -> (TempDir, Arc<HiveContext>, TableRef) {
        let t = TempDir::new("scan").unwrap();
        let h = SimHdfs::new(
            t.path(),
            HdfsConfig {
                block_size: 512,
                replication: 1,
            },
        )
        .unwrap();
        let ctx = HiveContext::new(h, MrEngine::new(4));
        let schema = Arc::new(Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("region_id", ValueType::Int),
            ("power", ValueType::Float),
        ]));
        let tab = ctx.create_table("meter", schema, format).unwrap();
        let rows: Vec<Row> = (0..500)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 7),
                    Value::Float((i % 100) as f64),
                ]
            })
            .collect();
        ctx.load_rows(&tab, &rows, 3).unwrap();
        (t, ctx, tab)
    }

    fn sum_query() -> Query {
        Query::Aggregate {
            aggs: vec![AggFunc::Sum("power".into()), AggFunc::Count],
            predicate: Predicate::all().and(
                "user_id",
                ColumnRange::half_open(Value::Int(100), Value::Int(200)),
            ),
        }
    }

    #[test]
    fn scan_engine_text_aggregate() {
        let (_t, ctx, tab) = setup(FileFormat::Text);
        let run = ScanEngine::new(ctx.clone(), tab).run(&sum_query()).unwrap();
        let vals = run.result.into_scalars();
        // sum of (i % 100) for i in 100..200 = 0+1+..+99 = 4950
        assert_eq!(vals[0], Value::Float(4950.0));
        assert_eq!(vals[1], Value::Int(100));
        assert_eq!(run.stats.data_records_read, 500); // full scan reads all
        assert_eq!(run.stats.splits_read, run.stats.splits_total);
        assert!(run.stats.splits_total > 1);
    }

    #[test]
    fn scan_engine_rcfile_matches_text() {
        let (_t1, ctx1, tab1) = setup(FileFormat::Text);
        let (_t2, ctx2, tab2) = setup(FileFormat::RcFile);
        let a = ScanEngine::new(ctx1, tab1).run(&sum_query()).unwrap();
        let b = ScanEngine::new(ctx2, tab2).run(&sum_query()).unwrap();
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn group_by_over_scan() {
        let (_t, ctx, tab) = setup(FileFormat::Text);
        let q = Query::GroupBy {
            key: "region_id".into(),
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        };
        let run = ScanEngine::new(ctx, tab).run(&q).unwrap();
        let groups = run.result.into_groups();
        assert_eq!(groups.len(), 7);
        let total: i64 = groups.iter().map(|(_, v)| v[0].as_i64().unwrap()).sum();
        assert_eq!(total, 500);
    }

    fn users_and_join(ctx: &Arc<HiveContext>) -> (TableRef, Query) {
        let user_schema = Arc::new(Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("name", ValueType::Str),
        ]));
        let users = ctx
            .create_table("users", user_schema, FileFormat::Text)
            .unwrap();
        let user_rows: Vec<Row> = (0..500)
            .map(|i| vec![Value::Int(i), Value::Str(format!("u{i}"))])
            .collect();
        ctx.load_rows(&users, &user_rows, 1).unwrap();
        let q = Query::Join {
            left_key: "user_id".into(),
            right_key: "user_id".into(),
            left_project: vec!["power".into()],
            right_project: vec!["name".into()],
            predicate: Predicate::all().and(
                "user_id",
                ColumnRange::half_open(Value::Int(10), Value::Int(13)),
            ),
        };
        (users, q)
    }

    #[test]
    fn join_over_scan() {
        let (_t, ctx, tab) = setup(FileFormat::Text);
        let (users, q) = users_and_join(&ctx);
        let run = ScanEngine::new(ctx, tab).with_right(users).run(&q).unwrap();
        let rows = run.result.normalized().into_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Str("u10".into()));
    }

    /// An empty plan reads no Slice. Its join looks the build side up like
    /// any other — the one read of the dimension table when the cache is
    /// cold, nothing when it is warm — and the sink it returns is whole: a
    /// row the caller pushes afterwards (DGFIndex's unflushed rows) joins.
    #[test]
    fn join_over_an_empty_plan_reads_the_dimension_table_once_and_joins_a_pushed_row() {
        let (_t, ctx, tab) = setup(FileFormat::RcFile);
        let (users, q) = users_and_join(&ctx);
        let before = ctx.hdfs.stats().snapshot();
        ctx.read_all(&users).unwrap();
        let dim = ctx.hdfs.stats().snapshot().since(&before);

        let bound = q.predicate().bind(&tab.schema).unwrap();
        let fresh = vec![Value::Int(11), Value::Int(4), Value::Float(1.5)];
        let joined = QueryResult::Rows(vec![vec![Value::Str("u11".into()), Value::Float(1.5)]]);
        for builds in [1, 0] {
            let (before, scan_before) = (ctx.hdfs.stats().snapshot(), ctx.scan_stats.snapshot());
            let mut sink = execute_sink(&ctx, &tab, &q, Some(&users), Vec::new()).unwrap();
            let io = ctx.hdfs.stats().snapshot().since(&before);
            assert_eq!(io.bytes_read, builds * dim.bytes_read);
            assert!(sink.push_if(&fresh, &bound).unwrap());
            assert_eq!(sink.finish(), joined);
            let scan = ctx.scan_stats.snapshot().since(&scan_before);
            assert_eq!((scan.join_builds, scan.join_build_reuses), (builds, 1 - builds));
        }
    }

    /// A join's build side is made once per version of the dimension
    /// table — the inode ids of its files — and reused until the version
    /// moves; the `query.scan` span carries the join and the footer
    /// counters, zeros included. Two of the moves below keep every file's
    /// name and length, so a version made of names and lengths would serve
    /// the old rows.
    #[test]
    fn a_join_reads_its_dimension_table_once_per_table_version() {
        let (_t, ctx, tab) = setup(FileFormat::RcFile);
        let (users, q) = users_and_join(&ctx);
        // The joined names, the bytes read and the (builds, reuses) of one
        // run, as its `query.scan` span reports them.
        let join = |users: &TableRef| {
            let run = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab))
                .with_right(Arc::clone(users))
                .with_profiler(Profiler::enabled())
                .run(&q)
                .unwrap();
            let span = &run.stats.profile.find("query.scan").unwrap().metrics;
            let builds = (span[names::SCAN_JOIN_BUILDS], span[names::SCAN_JOIN_BUILD_REUSES]);
            let scan = run.stats.scan;
            assert_eq!(builds, (scan.join_builds, scan.join_build_reuses));
            let footers = (span[names::SCAN_FOOTER_READS], span[names::SCAN_FOOTER_REUSES]);
            assert_eq!(footers, (scan.footer_reads, scan.footer_reuses));
            let names: Vec<Value> = run
                .result
                .normalized()
                .into_rows()
                .into_iter()
                .map(|r| r[0].clone())
                .collect();
            (names, run.stats.data_bytes_read, builds)
        };
        let strs = |names: &[&str]| -> Vec<Value> {
            names.iter().map(|n| Value::Str((*n).into())).collect()
        };

        // An unmeasured scan reads the fact table's footers, so the two
        // joins below differ by the dimension table alone.
        ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab)).run(&sum_query()).unwrap();
        let (names, cold, builds) = join(&users);
        assert_eq!((names, builds), (strs(&["u10", "u11", "u12"]), (1, 0)));
        let (names, warm, builds) = join(&users);
        assert_eq!((names, builds), (strs(&["u10", "u11", "u12"]), (0, 1)));
        let before = ctx.hdfs.stats().snapshot();
        ctx.read_all(&users).unwrap();
        let dim = ctx.hdfs.stats().snapshot().since(&before).bytes_read;
        assert_eq!(cold - warm, dim, "one dimension read");

        // Dropped and re-created with names of the same length by another
        // client of the cluster: the same file names and lengths, new
        // rows. This context's `drop_table` never ran, so only the version
        // check can see it.
        let listed = ctx.hdfs.list_files(&users.location);
        let other = HiveContext::new(Arc::clone(&ctx.hdfs), MrEngine::new(1));
        other.register_restored_table((*users).clone()).unwrap();
        other.drop_table("users").unwrap();
        let users = other
            .create_table("users", Arc::clone(&users.schema), FileFormat::Text)
            .unwrap();
        let renamed: Vec<Row> = (0..500)
            .map(|i| vec![Value::Int(i), Value::Str(format!("v{i}"))])
            .collect();
        other.load_rows(&users, &renamed, 1).unwrap();
        assert_eq!(ctx.hdfs.list_files(&users.location), listed);
        let (names, _, builds) = join(&users);
        assert_eq!((names, builds), (strs(&["v10", "v11", "v12"]), (1, 0)));

        // An appended file joins on the next run.
        let late = vec![vec![Value::Int(11), Value::Str("late-11".into())]];
        let delta = ctx.append_file(&users, "delta", &late).unwrap();
        let (names, _, builds) = join(&users);
        assert_eq!((names, builds), (strs(&["late-11", "v10", "v11", "v12"]), (1, 0)));

        // Replaced by a file of the same name and length: new rows again.
        let listed = ctx.hdfs.list_files(&users.location);
        ctx.hdfs.delete_file(&delta).unwrap();
        let soon = vec![vec![Value::Int(11), Value::Str("soon-11".into())]];
        ctx.append_file(&users, "delta", &soon).unwrap();
        assert_eq!(ctx.hdfs.list_files(&users.location), listed);
        let (names, _, builds) = join(&users);
        assert_eq!((names, builds), (strs(&["soon-11", "v10", "v11", "v12"]), (1, 0)));

        // A rename that keeps the files' order keeps their ids: the same
        // version, so the build side is reused.
        let ids = ctx.hdfs.file_ids(&users.location);
        ctx.hdfs
            .rename_file(&delta, &format!("{}/delta-1", users.location))
            .unwrap();
        assert_eq!(ctx.hdfs.file_ids(&users.location), ids);
        let (names, _, builds) = join(&users);
        assert_eq!((names, builds), (strs(&["soon-11", "v10", "v11", "v12"]), (0, 1)));
    }

    /// A cached footer never vouches for a frame: after a query has read
    /// a file's footer, a frame whose length prefix is flipped on disk
    /// fails the next query as corrupt.
    #[test]
    fn a_flipped_frame_behind_a_cached_footer_is_corrupt() {
        let (t, ctx, tab) = setup(FileFormat::RcFile);
        let engine = ScanEngine::new(Arc::clone(&ctx), Arc::clone(&tab));
        let answer = engine.run(&sum_query()).unwrap().result;
        assert_eq!(engine.run(&sum_query()).unwrap().result, answer);
        let (path, _) = ctx.hdfs.list_files(&tab.location).remove(0);
        let footer = ctx.footer(&path).unwrap();
        assert_eq!(ctx.scan_stats.snapshot().footer_reads, 3, "one read per file");

        let local = t.path().join(path.trim_start_matches('/'));
        let mut bytes = std::fs::read(&local).unwrap();
        let at = footer.group_offsets()[0] as usize;
        bytes[at] ^= 1;
        std::fs::write(&local, bytes).unwrap();
        let err = engine.run(&sum_query()).unwrap_err();
        assert!(matches!(err, dgf_common::DgfError::Corrupt(_)), "{err:?}");
        assert_eq!(ctx.scan_stats.snapshot().footer_reads, 3, "the footer was not read again");
    }

    #[test]
    fn join_without_right_errors() {
        let (_t, ctx, tab) = setup(FileFormat::Text);
        let q = Query::Join {
            left_key: "user_id".into(),
            right_key: "user_id".into(),
            left_project: vec![],
            right_project: vec![],
            predicate: Predicate::all(),
        };
        assert!(ScanEngine::new(ctx, tab).run(&q).is_err());
    }
}
