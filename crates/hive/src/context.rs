//! The warehouse context: a metastore over a simulated cluster.
//!
//! `HiveContext` plays the role of Hive's metastore + driver: it knows the
//! tables (schema, storage format, HDFS location), owns the MapReduce
//! engine, and offers bulk load helpers. Tables live under
//! `/warehouse/<name>/part-NNNNN`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dgf_common::stats::ScanStatsRef;
use dgf_common::{DgfError, Result, Row, SchemaRef, Value, FIELD_DELIM};
use dgf_format::{is_sidecar_path, read_footer, FileFormat, RcFooter, RcWriter, TextWriter};
use dgf_mapreduce::MrEngine;
use dgf_query::JoinTable;
use dgf_storage::{FileSplit, HdfsRef};

use crate::scan::{open_input, ScanInput};

/// Execution knobs for the scan path (DESIGN.md §12).
///
/// The one knob defaults to on; tests and benchmarks turn it off to
/// compare pruned scans against unpruned ones. How a table is read is not
/// a knob: an RCFile in decoded batches, text line by line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Consult per-slice sidecar indexes (zone maps + hierarchical
    /// bitmaps, DESIGN.md §15) to skip row groups inside boundary
    /// slices. Missing or corrupt sidecars silently degrade to the
    /// unpruned scan.
    pub sidecar: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions { sidecar: true }
    }
}

/// Knobs for the concurrent serving frontend (DESIGN.md §13).
///
/// Declared beside [`ScanOptions`] because it is the same kind of
/// engine-facing tuning surface; the serving tier itself lives in
/// `dgf-serve` and consumes this struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Queries the scheduler lets run concurrently; further admitted
    /// queries wait for a slot.
    pub workers: usize,
    /// Admission-control budget: total estimated bytes of in-flight
    /// query state before new arrivals are rejected with backpressure
    /// (the ingest byte-reservation pattern applied to reads).
    pub max_inflight_bytes: u64,
    /// Estimated cost one query reserves against the budget.
    pub query_cost_bytes: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            max_inflight_bytes: 64 << 20,
            query_cost_bytes: 1 << 20,
        }
    }
}

/// Descriptor of one table.
#[derive(Debug, Clone)]
pub struct TableDesc {
    /// Table name.
    pub name: String,
    /// Row schema.
    pub schema: SchemaRef,
    /// Storage format.
    pub format: FileFormat,
    /// HDFS directory holding the table's files.
    pub location: String,
    /// Rows per row group (RCFile only).
    pub rows_per_group: usize,
}

impl TableDesc {
    /// `rows` as this table stores them, checked before anything is
    /// written: a row of the wrong arity, a cell its column does not admit
    /// ([`ValueType::admits`]), or a string a text line cannot hold is a
    /// [`DgfError::Schema`]. Text cannot tell `""` from NULL either, so a
    /// Text table stores a `Str("")` as NULL; the rows are copied only then.
    ///
    /// [`ValueType::admits`]: dgf_common::ValueType::admits
    pub fn conform<'r>(&self, rows: &'r [Row]) -> Result<Cow<'r, [Row]>> {
        let text = self.format == FileFormat::Text;
        let mut blanks = false;
        for row in rows {
            if row.len() != self.schema.len() {
                return Err(DgfError::Schema(format!(
                    "a row of {} fields in table {:?} of {}",
                    row.len(),
                    self.name,
                    self.schema.len()
                )));
            }
            for (v, f) in row.iter().zip(self.schema.fields()) {
                let fits = match v {
                    Value::Str(s) if text => !s.contains([FIELD_DELIM, '\n']),
                    _ => true,
                };
                if !(fits && f.vtype.admits(v)) {
                    return Err(DgfError::Schema(format!(
                        "column {:?} ({}) of table {:?} cannot hold {v:?}",
                        f.name, f.vtype, self.name
                    )));
                }
                blanks |= text && matches!(v, Value::Str(s) if s.is_empty());
            }
        }
        if !blanks {
            return Ok(Cow::Borrowed(rows));
        }
        let blank_to_null = |v: &Value| match v {
            Value::Str(s) if s.is_empty() => Value::Null,
            v => v.clone(),
        };
        Ok(Cow::Owned(rows.iter().map(|row| row.iter().map(blank_to_null).collect()).collect()))
    }
}

/// Shared table handle.
pub type TableRef = Arc<TableDesc>;

/// The warehouse: metastore + cluster + MR engine.
pub struct HiveContext {
    /// The simulated cluster.
    pub hdfs: HdfsRef,
    /// The MapReduce engine queries and index builds run on.
    pub engine: MrEngine,
    /// Lifetime-global columnar scan accounting. Engines snapshot before
    /// a run and diff after, exactly like [`SimHdfs::stats`] I/O counters.
    ///
    /// [`SimHdfs::stats`]: dgf_storage::SimHdfs::stats
    pub scan_stats: ScanStatsRef,
    scan_options: RwLock<ScanOptions>,
    tables: RwLock<HashMap<String, TableRef>>,
    /// The join build sides, by what each is made from (see
    /// [`Self::join_table`]).
    join_tables: Mutex<HashMap<JoinKey, Slot<Built>>>,
    /// The footer of every RCFile read on this context, by path, with the
    /// inode id of the file it was read from (see [`Self::footer`]).
    footers: Mutex<HashMap<String, Slot<Footer>>>,
}

/// One key's value, if made yet; locked while it is made.
type Slot<T> = Arc<Mutex<Option<T>>>;

/// A footer and the inode id of the file version it was read from.
type Footer = (u64, Arc<RcFooter>);

/// What a build side is made from: which table, read how, and which of
/// its columns.
#[derive(PartialEq, Eq, Hash)]
struct JoinKey {
    location: String,
    schema: SchemaRef,
    format: FileFormat,
    key: usize,
    project: Vec<usize>,
}

/// A build side and the table version it was made from.
struct Built {
    version: Vec<u64>,
    table: Arc<JoinTable>,
}

impl HiveContext {
    /// Create a context over `hdfs`.
    pub fn new(hdfs: HdfsRef, engine: MrEngine) -> Arc<HiveContext> {
        Arc::new(HiveContext {
            hdfs,
            engine,
            scan_stats: Arc::default(),
            scan_options: RwLock::new(ScanOptions::default()),
            tables: RwLock::new(HashMap::new()),
            join_tables: Mutex::default(),
            footers: Mutex::default(),
        })
    }

    /// The current scan execution knobs.
    pub fn scan_options(&self) -> ScanOptions {
        *self.scan_options.read()
    }

    /// Replace the scan execution knobs (affects subsequent queries).
    pub fn set_scan_options(&self, options: ScanOptions) {
        *self.scan_options.write() = options;
    }

    /// Register a new table at `/warehouse/<name>`.
    pub fn create_table(
        &self,
        name: &str,
        schema: SchemaRef,
        format: FileFormat,
    ) -> Result<TableRef> {
        self.create_table_at(name, schema, format, &format!("/warehouse/{name}"))
    }

    /// Register a new table at an explicit location.
    pub fn create_table_at(
        &self,
        name: &str,
        schema: SchemaRef,
        format: FileFormat,
        location: &str,
    ) -> Result<TableRef> {
        self.create_table_grouped(
            name,
            schema,
            format,
            location,
            dgf_format::DEFAULT_ROWS_PER_GROUP,
        )
    }

    /// Register a new table at an explicit location with an explicit
    /// RCFile row-group size (Text tables carry but ignore it). Derived
    /// tables — an index's reorganized data table — pass their parent's
    /// group size through here so rewritten slices keep the granularity
    /// the operator tuned, instead of silently reverting to the default.
    pub fn create_table_grouped(
        &self,
        name: &str,
        schema: SchemaRef,
        format: FileFormat,
        location: &str,
        rows_per_group: usize,
    ) -> Result<TableRef> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(DgfError::Schema(format!("table {name:?} already exists")));
        }
        self.hdfs.mkdirs(location)?;
        let desc = Arc::new(TableDesc {
            name: name.to_owned(),
            schema,
            format,
            location: location.to_owned(),
            rows_per_group,
        });
        tables.insert(name.to_owned(), Arc::clone(&desc));
        Ok(desc)
    }

    /// A snapshot of every registered table descriptor.
    pub fn tables_snapshot(&self) -> Vec<TableDesc> {
        self.tables.read().values().map(|t| (**t).clone()).collect()
    }

    /// Register a table restored from a persisted catalog (its files
    /// already exist; nothing is created).
    pub fn register_restored_table(&self, desc: TableDesc) -> Result<TableRef> {
        let mut tables = self.tables.write();
        if tables.contains_key(&desc.name) {
            return Err(DgfError::Schema(format!(
                "table {:?} already exists",
                desc.name
            )));
        }
        let desc = Arc::new(desc);
        tables.insert(desc.name.clone(), Arc::clone(&desc));
        Ok(desc)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<TableRef> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DgfError::Schema(format!("no such table {name:?}")))
    }

    /// Drop a table and delete its files. The join build sides made from
    /// it and the footers of its files go with it.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        if let Some(t) = self.tables.write().remove(name) {
            self.join_tables.lock().retain(|k, _| k.location != t.location);
            let inside = format!("{}/", t.location);
            self.footers.lock().retain(|path, _| !path.starts_with(&inside));
            self.hdfs.delete_tree(&t.location)?;
        }
        Ok(())
    }

    /// Bulk-load rows into `table`, spread over `num_files` sequential
    /// files (row order is preserved — meter data arrives time-ordered and
    /// the paper's real-world dataset is physically sorted by time).
    ///
    /// The rows are conformed ([`TableDesc::conform`]) before the first
    /// file is created, so a load with a row its table cannot hold writes
    /// nothing.
    pub fn load_rows(&self, table: &TableDesc, rows: &[Row], num_files: usize) -> Result<()> {
        let rows = table.conform(rows)?;
        let num_files = num_files.max(1);
        let per_file = rows.len().div_ceil(num_files).max(1);
        for (i, chunk) in rows.chunks(per_file).enumerate() {
            let path = format!("{}/part-{i:05}", table.location);
            self.write_file(table, &path, chunk)?;
        }
        Ok(())
    }

    /// Append one new file of rows to a table (incremental load),
    /// conformed first as [`Self::load_rows`] does.
    pub fn append_file(&self, table: &TableDesc, file_name: &str, rows: &[Row]) -> Result<String> {
        let rows = table.conform(rows)?;
        let path = format!("{}/{file_name}", table.location);
        self.write_file(table, &path, &rows)?;
        Ok(path)
    }

    fn write_file(&self, table: &TableDesc, path: &str, rows: &[Row]) -> Result<()> {
        let mut w = TableWriter::create(&self.hdfs, path, table)?;
        for r in rows {
            w.write(r)?;
        }
        w.close()?;
        Ok(())
    }

    /// Input splits for a whole table: every data file under its
    /// location. The `.scx` sidecars beside a DGFIndex data table's
    /// files are not table data.
    pub fn table_splits(&self, table: &TableDesc) -> Vec<FileSplit> {
        let mut splits = self.hdfs.splits_for_dir(&table.location);
        splits.retain(|s| !is_sidecar_path(&s.path));
        splits
    }

    /// Total bytes stored by the table.
    pub fn table_size_bytes(&self, table: &TableDesc) -> u64 {
        self.hdfs.dir_size(&table.location)
    }

    /// Read every row of a table, split by split in file order (small
    /// tables: dimension tables).
    pub fn read_all(&self, table: &TableDesc) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        for split in self.table_splits(table) {
            open_input(self, table, &ScanInput::FullSplit(split))?.for_each_row(|_, row| {
                out.push(row.clone());
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// The build side of a join with dimension table `right` on column
    /// `right_key`, keeping columns `right_project` — made once per version
    /// of the table and shared by every query that joins it (DESIGN.md
    /// §12).
    ///
    /// A version is the inode ids of the table's files in path order, so
    /// an appended, deleted, renamed or re-created file is a new version,
    /// even under the old name and length. Checking it is a NameNode lookup
    /// and reads no byte; the dimension table is read only to make a build
    /// side no version yet had.
    pub fn join_table(
        &self,
        right: &TableDesc,
        right_key: &str,
        right_project: &[String],
    ) -> Result<Arc<JoinTable>> {
        let key = right.schema.index_of(right_key)?;
        let project = right_project
            .iter()
            .map(|c| right.schema.index_of(c))
            .collect::<Result<Vec<_>>>()?;
        let slot = Arc::clone(
            self.join_tables
                .lock()
                .entry(JoinKey {
                    location: right.location.clone(),
                    schema: Arc::clone(&right.schema),
                    format: right.format,
                    key,
                    project: project.clone(),
                })
                .or_default(),
        );
        // Held across the read: joins that find the slot stale together
        // wait for one read instead of each making their own.
        let mut slot = slot.lock();
        // Taken before the read, so a file that changes during it makes
        // the next lookup rebuild rather than serve a stale table.
        let version = self.hdfs.file_ids(&right.location);
        if let Some(built) = slot.as_ref().filter(|b| b.version == version) {
            self.scan_stats.join_build_reuses.inc();
            return Ok(Arc::clone(&built.table));
        }
        let table = Arc::new(JoinTable::new(&self.read_all(right)?, key, &project));
        self.scan_stats.join_builds.inc();
        *slot = Some(Built {
            version,
            table: Arc::clone(&table),
        });
        Ok(table)
    }

    /// The footer of the RCFile at `path`, read once per version of the
    /// file and shared by every reader that opens it on this context
    /// (DESIGN.md §12).
    ///
    /// A version is the file's inode id, so a file deleted and written
    /// again under the same name and length is read again. Checking it is
    /// a NameNode lookup and reads no byte. The map holds only files that
    /// exist: a read first drops the entries whose path the NameNode no
    /// longer lists, and [`Self::drop_table`] drops its table's.
    pub(crate) fn footer(&self, path: &str) -> Result<Arc<RcFooter>> {
        // Taken before the read, so a file replaced during it is read
        // again on the next lookup rather than served stale.
        let id = self.hdfs.file_id(path)?;
        let slot = Arc::clone(self.footers.lock().entry(path.to_owned()).or_default());
        // Held across the read: map tasks that open one cold file together
        // wait for one read instead of each making their own.
        let mut slot = slot.lock();
        if let Some((_, footer)) = slot.as_ref().filter(|(v, _)| *v == id) {
            self.scan_stats.footer_reuses.inc();
            return Ok(Arc::clone(footer));
        }
        self.footers.lock().retain(|p, _| self.hdfs.file_exists(p));
        let footer = Arc::new(read_footer(&self.hdfs, path)?);
        self.scan_stats.footer_reads.inc();
        *slot = Some((id, Arc::clone(&footer)));
        Ok(footer)
    }

    /// The paths this context has looked a footer up for, in path order:
    /// only files that existed at its last footer read, less the tables
    /// dropped since.
    pub fn footer_paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = self.footers.lock().keys().cloned().collect();
        paths.sort_unstable();
        paths
    }
}

/// The one writer of a table's files, of the table's format: the write
/// side of [`open_input`]. Rows go in as [`Row`]s; only the text arm
/// formats them.
pub enum TableWriter {
    /// Delimited text lines.
    Text(TextWriter),
    /// RCFile row groups of the table's `rows_per_group`.
    Rc(Box<RcWriter>),
}

impl TableWriter {
    /// A new file at `path` in `table`'s format, schema and group size.
    pub fn create(hdfs: &HdfsRef, path: &str, table: &TableDesc) -> Result<TableWriter> {
        Ok(match table.format {
            FileFormat::Text => TableWriter::Text(TextWriter::create(hdfs, path)?),
            FileFormat::RcFile => TableWriter::Rc(Box::new(RcWriter::create(
                hdfs,
                path,
                table.schema.clone(),
                table.rows_per_group,
            )?)),
        })
    }

    /// Append one row.
    pub fn write(&mut self, row: &Row) -> Result<()> {
        match self {
            TableWriter::Text(w) => w.write_row(row)?,
            TableWriter::Rc(w) => w.write_row(row)?,
        };
        Ok(())
    }

    /// Where the next row's line or row group begins.
    pub fn offset(&self) -> u64 {
        match self {
            TableWriter::Text(w) => w.offset(),
            TableWriter::Rc(w) => w.group_offset(),
        }
    }

    /// End the rows written so far at a line or row-group boundary, so
    /// the next row starts a new one; returns the boundary's offset.
    pub fn seal(&mut self) -> Result<u64> {
        if let TableWriter::Rc(w) = self {
            w.finish_group()?;
        }
        Ok(self.offset())
    }

    /// Seal, finish and register the file; returns its length.
    pub fn close(self) -> Result<u64> {
        match self {
            TableWriter::Text(w) => w.close(),
            TableWriter::Rc(w) => w.close(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::execute_sink;
    use dgf_common::stats::IoSnapshot;
    use dgf_common::{Schema, TempDir, Value, ValueType};
    use dgf_query::{AggFunc, Predicate, Query, QueryResult, RowSink};
    use dgf_storage::{HdfsConfig, SimHdfs};

    fn ctx() -> (TempDir, Arc<HiveContext>) {
        let t = TempDir::new("hivectx").unwrap();
        let h = SimHdfs::new(
            t.path(),
            HdfsConfig {
                block_size: 256,
                replication: 1,
            },
        )
        .unwrap();
        (t, HiveContext::new(h, MrEngine::new(2)))
    }

    fn schema() -> SchemaRef {
        Arc::new(Schema::from_pairs(&[
            ("id", ValueType::Int),
            ("v", ValueType::Float),
        ]))
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect()
    }

    #[test]
    fn create_load_read_text() {
        let (_t, ctx) = ctx();
        let tab = ctx.create_table("t", schema(), FileFormat::Text).unwrap();
        ctx.load_rows(&tab, &rows(100), 4).unwrap();
        assert_eq!(ctx.hdfs.list_files("/warehouse/t").len(), 4);
        let got = ctx.read_all(&tab).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got, rows(100)); // order preserved across sequential files
        assert!(ctx.table_size_bytes(&tab) > 0);
    }

    #[test]
    fn create_load_read_rcfile() {
        let (_t, ctx) = ctx();
        let tab = ctx.create_table("t", schema(), FileFormat::RcFile).unwrap();
        ctx.load_rows(&tab, &rows(50), 2).unwrap();
        let got = ctx.read_all(&tab).unwrap();
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn duplicate_table_rejected() {
        let (_t, ctx) = ctx();
        ctx.create_table("t", schema(), FileFormat::Text).unwrap();
        assert!(ctx.create_table("t", schema(), FileFormat::Text).is_err());
        assert!(ctx.table("t").is_ok());
        assert!(ctx.table("missing").is_err());
    }

    #[test]
    fn append_file_extends_table() {
        let (_t, ctx) = ctx();
        let tab = ctx.create_table("t", schema(), FileFormat::Text).unwrap();
        ctx.load_rows(&tab, &rows(10), 1).unwrap();
        ctx.append_file(&tab, "delta-0", &rows(5)).unwrap();
        assert_eq!(ctx.read_all(&tab).unwrap().len(), 15);
    }

    /// A row either fits its table as is, fits with a Text table's `""`
    /// read as NULL, or is a schema error.
    #[test]
    fn rows_conform_to_their_table() {
        let (_t, ctx) = ctx();
        let schema = Arc::new(Schema::from_pairs(&[("id", ValueType::Int), ("s", ValueType::Str)]));
        let text = ctx.create_table("t", Arc::clone(&schema), FileFormat::Text).unwrap();
        let rc = ctx.create_table("r", schema, FileFormat::RcFile).unwrap();
        let rows = vec![
            vec![Value::Int(1), Value::Str(String::new())],
            vec![Value::Null, Value::Str("on".into())],
        ];
        assert!(matches!(rc.conform(&rows).unwrap(), Cow::Borrowed(_)));
        let stored = text.conform(&rows).unwrap();
        assert_eq!(stored[0], [Value::Int(1), Value::Null]);
        assert_eq!(stored[1], rows[1]);
        for bad in [
            vec![Value::Int(1)],
            vec![Value::Str("1".into()), Value::Null],
            vec![Value::Float(1.0), Value::Null],
        ] {
            for table in [&text, &rc] {
                assert!(matches!(table.conform(std::slice::from_ref(&bad)), Err(DgfError::Schema(_))));
            }
        }
        let piped = [vec![Value::Int(1), Value::Str("a|b".into())]];
        assert!(matches!(text.conform(&piped), Err(DgfError::Schema(_))));
        assert!(rc.conform(&piped).is_ok());
    }

    /// Loads conform their rows before the first file is created: a row
    /// the table cannot hold, even in the last file's chunk, writes nothing.
    #[test]
    fn a_load_with_a_row_its_table_cannot_hold_writes_nothing() {
        let (_t, ctx) = ctx();
        let mut bad = rows(20);
        bad[19][1] = Value::Int(19);
        for (name, format) in [("t", FileFormat::Text), ("r", FileFormat::RcFile)] {
            let tab = ctx.create_table(name, schema(), format).unwrap();
            assert!(matches!(ctx.load_rows(&tab, &bad, 4), Err(DgfError::Schema(_))));
            assert!(matches!(ctx.append_file(&tab, "delta", &bad), Err(DgfError::Schema(_))));
            assert!(ctx.hdfs.list_files(&tab.location).is_empty(), "{format:?}");
        }
    }

    #[test]
    fn drop_table_removes_files() {
        let (_t, ctx) = ctx();
        let tab = ctx.create_table("t", schema(), FileFormat::Text).unwrap();
        ctx.load_rows(&tab, &rows(10), 1).unwrap();
        ctx.drop_table("t").unwrap();
        assert!(ctx.table("t").is_err());
        assert!(ctx.hdfs.list_files("/warehouse/t").is_empty());
    }

    /// One build side per table, key and projection, shared while the
    /// table stands; dropping the table forgets its build sides.
    #[test]
    fn join_tables_are_shared_and_dropped_with_their_table() {
        let (_t, ctx) = ctx();
        let tab = ctx.create_table("t", schema(), FileFormat::Text).unwrap();
        ctx.load_rows(&tab, &rows(10), 2).unwrap();
        let by_id = ctx.join_table(&tab, "id", &["v".into()]).unwrap();
        assert_eq!(by_id.get(&Value::Int(3)), Some(&[vec![Value::Float(3.0)]][..]));
        let again = ctx.join_table(&tab, "id", &["v".into()]).unwrap();
        assert!(Arc::ptr_eq(&by_id, &again));
        let by_v = ctx.join_table(&tab, "v", &[]).unwrap();
        assert!(!Arc::ptr_eq(&by_id, &by_v));
        assert!(ctx.join_table(&tab, "missing", &[]).is_err());
        let stats = ctx.scan_stats.snapshot();
        assert_eq!((stats.join_builds, stats.join_build_reuses), (2, 1));
        assert_eq!(ctx.join_tables.lock().len(), 2);

        ctx.drop_table("t").unwrap();
        assert!(ctx.join_tables.lock().is_empty());
    }

    /// An RCFile table of 200 rows in `files` files of 16-row groups,
    /// several splits each.
    fn rc_table(ctx: &HiveContext, name: &str, files: usize) -> TableRef {
        let location = format!("/warehouse/{name}");
        let tab = ctx
            .create_table_grouped(name, schema(), FileFormat::RcFile, &location, 16)
            .unwrap();
        ctx.load_rows(&tab, &rows(200), files).unwrap();
        tab
    }

    fn full_splits(ctx: &HiveContext, tab: &TableDesc) -> Vec<ScanInput> {
        ctx.table_splits(tab).into_iter().map(ScanInput::FullSplit).collect()
    }

    fn sum_v() -> Query {
        Query::Aggregate {
            aggs: vec![AggFunc::Sum("v".into()), AggFunc::Count],
            predicate: Predicate::all(),
        }
    }

    /// A scan's answer, I/O and (footer reads, footer reuses).
    fn scan(
        ctx: &HiveContext,
        tab: &TableDesc,
        inputs: &[ScanInput],
    ) -> (QueryResult, IoSnapshot, (u64, u64)) {
        let (io, stats) = (ctx.hdfs.stats().snapshot(), ctx.scan_stats.snapshot());
        let result = execute_sink(ctx, tab, &sum_v(), None, inputs.to_vec()).unwrap().finish();
        let footers = ctx.scan_stats.snapshot().since(&stats);
        let io = ctx.hdfs.stats().snapshot().since(&io);
        (result, io, (footers.footer_reads, footers.footer_reuses))
    }

    /// One footer read per file serves every input of the file and every
    /// later query of the same file version. A cold scan opens each file
    /// once more than it has inputs and seeks twice more to read the
    /// footer; a warm one opens each input once and reads frames alone.
    /// Both read the same records and give the answer each input opened
    /// on its own gives.
    #[test]
    fn one_footer_read_serves_every_input_and_every_query_of_a_file_version() {
        let (_t, ctx) = ctx();
        let tab = rc_table(&ctx, "t", 2);
        let inputs = full_splits(&ctx, &tab);
        let listed = ctx.hdfs.list_files(&tab.location);
        let (files, n) = (listed.len() as u64, inputs.len() as u64);
        assert!(n > files, "no file has two splits");
        // The 12-byte tail, then the directory with the tail again.
        let footer_bytes: u64 = listed
            .iter()
            .map(|(path, len)| 12 + len - read_footer(&ctx.hdfs, path).unwrap().frames_end())
            .sum();

        let (cold_result, cold, footers) = scan(&ctx, &tab, &inputs);
        assert_eq!(footers, (files, n - files));
        assert_eq!(cold.opens, files + n);
        let (warm_result, warm, footers) = scan(&ctx, &tab, &inputs);
        assert_eq!(footers, (0, n));
        assert_eq!(warm.opens, n);
        assert_eq!(cold.seeks - warm.seeks, 2 * files);
        assert_eq!(cold.bytes_read - warm.bytes_read, footer_bytes);
        assert_eq!(warm.records_read, cold.records_read);
        assert_eq!(warm_result, cold_result);

        let before = ctx.hdfs.stats().snapshot();
        let mut sink = RowSink::new(&sum_v(), &tab.schema, None).unwrap();
        let bound = sum_v().predicate().bind(&tab.schema).unwrap();
        for input in &inputs {
            open_input(&ctx, &tab, input)
                .unwrap()
                .for_each_row(|_, row| sink.push_if(row, &bound).map(drop))
                .unwrap();
        }
        let own = ctx.hdfs.stats().snapshot().since(&before);
        assert_eq!((own.opens, own.records_read), (n, warm.records_read));
        assert_eq!(own.bytes_read, warm.bytes_read);
        assert_eq!(sink.finish(), cold_result);
        assert_eq!(ctx.footer_paths().len() as u64, files);
    }

    /// A version is the file's inode id: a file deleted and written again
    /// under its name and length is read again.
    #[test]
    fn a_file_recreated_under_its_name_and_length_is_read_again() {
        let (_t, ctx) = ctx();
        let tab = rc_table(&ctx, "t", 1);
        let reads = || ctx.scan_stats.snapshot().footer_reads;
        assert_eq!(ctx.read_all(&tab).unwrap(), rows(200));
        assert_eq!(ctx.read_all(&tab).unwrap(), rows(200));
        assert_eq!(reads(), 1);

        let listed = ctx.hdfs.list_files(&tab.location);
        ctx.hdfs.delete_file(&listed[0].0).unwrap();
        let negated: Vec<Row> = (0..200)
            .map(|i| vec![Value::Int(i), Value::Float(-(i as f64))])
            .collect();
        ctx.append_file(&tab, "part-00000", &negated).unwrap();
        assert_eq!(ctx.hdfs.list_files(&tab.location), listed);
        assert_eq!(ctx.read_all(&tab).unwrap(), negated);
        assert_eq!(reads(), 2);
    }

    /// The map holds only files that exist: a deleted file's footer stays
    /// until the next footer read, which drops it.
    #[test]
    fn a_deleted_files_footer_is_dropped_by_the_next_read() {
        let (_t, ctx) = ctx();
        let tab = rc_table(&ctx, "t", 2);
        ctx.read_all(&tab).unwrap();
        let paths: Vec<String> = ctx
            .hdfs
            .list_files(&tab.location)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(ctx.footer_paths(), paths);

        ctx.hdfs.delete_file(&paths[0]).unwrap();
        ctx.read_all(&tab).unwrap();
        assert_eq!(ctx.footer_paths(), paths, "a reuse drops nothing");
        let late = ctx.append_file(&tab, "delta", &rows(5)).unwrap();
        ctx.read_all(&tab).unwrap();
        assert_eq!(ctx.footer_paths(), [late, paths[1].clone()]);
    }

    /// Dropping a table drops the footers of its files, and no other
    /// table's: not even one whose location its own is a prefix of.
    #[test]
    fn drop_table_drops_its_footers() {
        let (_t, ctx) = ctx();
        let t = rc_table(&ctx, "t", 2);
        let t2 = rc_table(&ctx, "t2", 1);
        ctx.read_all(&t).unwrap();
        ctx.read_all(&t2).unwrap();
        assert_eq!(ctx.footer_paths().len(), 3);
        ctx.drop_table("t").unwrap();
        assert_eq!(ctx.footer_paths(), ["/warehouse/t2/part-00000"]);
    }

    /// Map tasks that open one cold file together wait for one read of
    /// its footer: a scan reads one footer per distinct file, however
    /// many of the file's splits run at once.
    #[test]
    fn map_tasks_on_one_cold_file_read_its_footer_once() {
        let (_t, ctx) = ctx();
        assert!(ctx.engine.threads() > 1);
        for round in 0..8 {
            let tab = rc_table(&ctx, &format!("t{round}"), 1 + round % 2);
            let inputs = full_splits(&ctx, &tab);
            let files = ctx.hdfs.list_files(&tab.location).len() as u64;
            let (_, _, footers) = scan(&ctx, &tab, &inputs);
            assert_eq!(footers, (files, inputs.len() as u64 - files), "round {round}");
        }
    }

    #[test]
    fn empty_load_creates_single_empty_file() {
        let (_t, ctx) = ctx();
        let tab = ctx.create_table("t", schema(), FileFormat::Text).unwrap();
        ctx.load_rows(&tab, &[], 3).unwrap();
        assert!(ctx.read_all(&tab).unwrap().is_empty());
    }
}
