//! # dgf-hadoopdb
//!
//! The HadoopDB baseline (Abouzeid et al., VLDB 2009) as deployed in the
//! paper's §5.1/§5.2: meter data hash-partitioned by `userId` across
//! nodes (GlobalHasher), each node's partition hashed again into ~1 GB
//! chunks (LocalHasher), every chunk bulk-loaded into its own
//! PostgreSQL-like clustered store with a multi-column index on
//! `(userId, regionId, time)`. Queries are pushed into every chunk and a
//! MapReduce-style collection merges the results.
//!
//! The paper's observed behaviour — excellent at point queries, degrading
//! to scan-level at 12% selectivity because of "resources competition,
//! and the low batch reading performance of RDBMS" — is reproduced
//! structurally: each chunk query pays a fixed startup overhead
//! (connection/planning) and a bounded per-node worker pool serializes
//! concurrent chunk queries.

#![warn(missing_docs)]

pub mod chunk;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use dgf_common::{run_scoped, DgfError, Result, Row, Schema, Stopwatch};
use dgf_query::{Engine, EngineRun, JoinTable, Query, RowSink, RunStats};

pub use chunk::{ChunkDb, ChunkSnapshot, ChunkStats, ROWS_PER_PAGE};

/// Deployment shape and cost model.
#[derive(Debug, Clone)]
pub struct HadoopDbConfig {
    /// Worker nodes (paper: 28).
    pub nodes: usize,
    /// Chunk databases per node (paper: 38).
    pub chunks_per_node: usize,
    /// Concurrent chunk queries per node — the resource-competition
    /// bound (PostgreSQL instances share the node's disks and cores).
    pub node_parallelism: usize,
    /// Fixed startup cost per chunk query (connection + planning).
    pub per_chunk_overhead: Duration,
}

impl Default for HadoopDbConfig {
    fn default() -> Self {
        HadoopDbConfig {
            nodes: 4,
            chunks_per_node: 6,
            node_parallelism: 2,
            per_chunk_overhead: Duration::from_micros(500),
        }
    }
}

fn hash_i64(x: i64, salt: u64) -> u64 {
    dgf_common::codec::fnv1a(&(x as u64 ^ salt).to_le_bytes())
}

/// A loaded HadoopDB deployment.
pub struct HadoopDb {
    config: HadoopDbConfig,
    schema: Schema,
    key_name: String,
    /// `nodes[n][c]` = chunk database `c` of node `n`.
    nodes: Vec<Vec<ChunkDb>>,
    stats: ChunkStats,
    /// Replicated dimension table (the paper copies the user table into
    /// every node's databases).
    right: Option<Replicated>,
    total_rows: u64,
}

/// The replicated dimension table and the join build sides made from it,
/// one per key column and projection: the table never changes after it
/// is replicated, so neither do they.
struct Replicated {
    schema: Schema,
    rows: Vec<Row>,
    builds: Mutex<HashMap<Columns, Arc<JoinTable>>>,
}

/// A build side's key column and projection.
type Columns = (usize, Vec<usize>);

impl Replicated {
    /// The build side of a join on `right_key` keeping `right_project`.
    fn build(&self, right_key: &str, right_project: &[String]) -> Result<Arc<JoinTable>> {
        let key = self.schema.index_of(right_key)?;
        let project = right_project
            .iter()
            .map(|c| self.schema.index_of(c))
            .collect::<Result<Vec<_>>>()?;
        let mut builds = self.builds.lock();
        let build = builds
            .entry((key, project))
            .or_insert_with_key(|(key, project)| Arc::new(JoinTable::new(&self.rows, *key, project)));
        Ok(Arc::clone(build))
    }
}

impl HadoopDb {
    /// Partition and bulk-load `rows` under `dir`.
    ///
    /// `key_col` is the GlobalHasher/LocalHasher column and the leading
    /// index column; `sort_cols` are the remaining index columns.
    pub fn load(
        dir: impl Into<PathBuf>,
        schema: Schema,
        rows: &[Row],
        key_col_name: &str,
        sort_col_names: &[&str],
        config: HadoopDbConfig,
    ) -> Result<HadoopDb> {
        if config.nodes == 0 || config.chunks_per_node == 0 {
            return Err(DgfError::Job("HadoopDB needs nodes and chunks".into()));
        }
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let key_col = schema.index_of(key_col_name)?;
        let sort_cols: Vec<usize> = sort_col_names
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<_>>()?;

        // GlobalHasher then LocalHasher.
        let mut buckets: Vec<Vec<Vec<Row>>> =
            vec![vec![Vec::new(); config.chunks_per_node]; config.nodes];
        for r in rows {
            let key = r[key_col].as_i64().map_err(|_| {
                DgfError::Schema("HadoopDB partition key must be an integer column".into())
            })?;
            let n = (hash_i64(key, 0x9E37) % config.nodes as u64) as usize;
            let c = (hash_i64(key, 0x85EB) % config.chunks_per_node as u64) as usize;
            buckets[n][c].push(r.clone());
        }

        let mut nodes = Vec::with_capacity(config.nodes);
        for (n, node_rows) in buckets.into_iter().enumerate() {
            let mut chunks = Vec::with_capacity(config.chunks_per_node);
            for (c, chunk_rows) in node_rows.into_iter().enumerate() {
                let path = dir.join(format!("node{n}-chunk{c}.db"));
                chunks.push(ChunkDb::bulk_load(path, chunk_rows, key_col, &sort_cols)?);
            }
            nodes.push(chunks);
        }
        Ok(HadoopDb {
            config,
            schema,
            key_name: key_col_name.to_owned(),
            nodes,
            stats: ChunkStats::default(),
            right: None,
            total_rows: rows.len() as u64,
        })
    }

    /// Replicate a small dimension table to every node (paper: the user
    /// table is put into all databases of every node).
    pub fn replicate_right(&mut self, schema: Schema, rows: Vec<Row>) {
        self.right = Some(Replicated {
            schema,
            rows,
            builds: Mutex::default(),
        });
    }

    /// Total chunk databases.
    pub fn chunk_count(&self) -> usize {
        self.nodes.iter().map(|n| n.len()).sum()
    }

    /// Total rows loaded.
    pub fn row_count(&self) -> u64 {
        self.total_rows
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> &ChunkStats {
        &self.stats
    }

    fn spin(d: Duration) {
        if d.is_zero() {
            return;
        }
        let s = std::time::Instant::now();
        while s.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// Run `work` over every chunk: all nodes concurrently (separate
    /// machines in the paper), the chunks inside a node contending for
    /// `node_parallelism` workers. Returns one sink per chunk, grouped by
    /// node. The first error stops the remaining chunks, and a panicking
    /// worker is a [`DgfError::Job`].
    fn fan_out(
        &self,
        work: &(dyn Fn(&ChunkDb) -> Result<RowSink> + Sync),
    ) -> Result<Vec<RowSink>> {
        let node_sinks: Mutex<Vec<RowSink>> = Mutex::new(Vec::new());
        let first_err: Mutex<Option<DgfError>> = Mutex::new(None);
        let record = |e: DgfError| {
            let mut slot = first_err.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        };
        let node = |chunks: &[ChunkDb]| {
            let queue: Mutex<std::slice::Iter<'_, ChunkDb>> = Mutex::new(chunks.iter());
            let local: Mutex<Vec<RowSink>> = Mutex::new(Vec::new());
            let worker = || loop {
                if first_err.lock().is_some() {
                    return;
                }
                let chunk = { queue.lock().next() };
                let Some(chunk) = chunk else { return };
                Self::spin(self.config.per_chunk_overhead);
                match work(chunk) {
                    Ok(sink) => local.lock().push(sink),
                    Err(e) => return record(e),
                }
            };
            let workers = (0..self.config.node_parallelism.max(1)).map(|_| &worker);
            match run_scoped("a HadoopDB chunk worker", workers) {
                Ok(_) => node_sinks.lock().append(&mut local.into_inner()),
                Err(e) => record(e),
            }
        };
        let node = &node;
        run_scoped("a HadoopDB node", self.nodes.iter().map(|chunks| move || node(chunks)))?;
        match first_err.into_inner() {
            Some(e) => Err(e),
            None => Ok(node_sinks.into_inner()),
        }
    }

    /// Push the query into every chunk and merge (the paper extends
    /// HadoopDB's MapReduce task code to run these queries).
    pub fn query(&self, query: &Query) -> Result<RowSink> {
        let key_range = query.predicate().range_of(&self.key_name).cloned();
        let bound = query.predicate().bind(&self.schema)?;
        // One sink per query, every chunk filling an empty sibling. A
        // join's build side is made once per key and projection, not per
        // query.
        let right = match (query, &self.right) {
            (
                Query::Join {
                    right_key,
                    right_project,
                    ..
                },
                Some(r),
            ) => Some((&r.schema, r.build(right_key, right_project)?)),
            _ => None,
        };
        let total = RowSink::new(query, &self.schema, right)?;

        let node_sinks = self.fan_out(&|chunk| {
            let mut sink = total.sibling();
            chunk.query(key_range.as_ref(), &bound, &mut sink, &self.stats)?;
            Ok(sink)
        })?;
        let mut sinks = node_sinks.into_iter();
        let mut total = sinks.next().unwrap_or(total);
        for s in sinks {
            total.merge(s)?;
        }
        Ok(total)
    }
}

/// The HadoopDB query engine.
pub struct HadoopDbEngine {
    db: Arc<HadoopDb>,
}

impl HadoopDbEngine {
    /// An engine over a loaded deployment.
    pub fn new(db: Arc<HadoopDb>) -> Self {
        HadoopDbEngine { db }
    }
}

impl Engine for HadoopDbEngine {
    fn name(&self) -> String {
        "HadoopDB".to_owned()
    }

    fn run(&self, query: &Query) -> Result<EngineRun> {
        let before = self.db.stats.snapshot();
        let watch = Stopwatch::start();
        let sink = self.db.query(query)?;
        let result = sink.finish();
        let delta = self.db.stats.snapshot().since(&before);
        Ok(EngineRun {
            result,
            stats: RunStats {
                data_time: watch.elapsed(),
                data_records_read: delta.rows_read,
                data_bytes_read: delta.bytes_read,
                splits_total: self.db.chunk_count() as u64,
                splits_read: self.db.chunk_count() as u64, // every chunk is probed
                ..RunStats::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{TempDir, Value, ValueType};
    use dgf_query::{AggFunc, ColumnRange, Predicate};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("region_id", ValueType::Int),
            ("day", ValueType::Int),
            ("power", ValueType::Float),
        ])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i % 300),
                    Value::Int(i % 11),
                    Value::Int(i % 30),
                    Value::Float((i % 50) as f64),
                ]
            })
            .collect()
    }

    fn config() -> HadoopDbConfig {
        HadoopDbConfig {
            nodes: 3,
            chunks_per_node: 4,
            node_parallelism: 2,
            per_chunk_overhead: Duration::ZERO,
        }
    }

    fn ground_truth_count(rows: &[Row], schema: &Schema, pred: &Predicate) -> i64 {
        let bound = pred.bind(schema).unwrap();
        rows.iter().filter(|r| bound.matches(r)).count() as i64
    }

    /// A chunk worker that panics fails the query with a job error
    /// instead of unwinding through the caller; the deployment still
    /// answers afterwards.
    #[test]
    fn a_panicking_chunk_worker_is_a_job_error() {
        let t = TempDir::new("hdb").unwrap();
        let db = HadoopDb::load(
            t.path(),
            schema(),
            &rows(600),
            "user_id",
            &["region_id", "day"],
            config(),
        )
        .unwrap();
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        };
        let total = RowSink::new(&q, &db.schema, None).unwrap();
        let seen = std::sync::atomic::AtomicUsize::new(0);
        let got = db.fan_out(&|_| {
            let n = seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            assert!(n != 4, "chunk boom");
            Ok(total.sibling())
        });
        assert!(matches!(got, Err(DgfError::Job(m)) if m.contains("panicked")));
        assert_eq!(db.fan_out(&|_| Ok(total.sibling())).unwrap().len(), 12);
    }

    #[test]
    fn load_partitions_everything_exactly_once() {
        let t = TempDir::new("hdb").unwrap();
        let db = HadoopDb::load(
            t.path(),
            schema(),
            &rows(3000),
            "user_id",
            &["region_id", "day"],
            config(),
        )
        .unwrap();
        assert_eq!(db.chunk_count(), 12);
        assert_eq!(db.row_count(), 3000);
        let total: u64 = db.nodes.iter().flatten().map(|c| c.row_count()).sum();
        assert_eq!(total, 3000);
    }

    #[test]
    fn aggregation_matches_ground_truth() {
        let t = TempDir::new("hdb").unwrap();
        let data = rows(3000);
        let db = Arc::new(
            HadoopDb::load(
                t.path(),
                schema(),
                &data,
                "user_id",
                &["region_id", "day"],
                config(),
            )
            .unwrap(),
        );
        let pred = Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(50), Value::Int(120)))
            .and("day", ColumnRange::half_open(Value::Int(3), Value::Int(20)));
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: pred.clone(),
        };
        let run = HadoopDbEngine::new(db).run(&q).unwrap();
        assert_eq!(
            run.result.into_scalars()[0],
            Value::Int(ground_truth_count(&data, &schema(), &pred))
        );
        assert!(run.stats.data_records_read > 0);
    }

    #[test]
    fn point_query_examines_far_fewer_rows_than_high_selectivity() {
        let t = TempDir::new("hdb").unwrap();
        let data = rows(20_000);
        let db = Arc::new(
            HadoopDb::load(
                t.path(),
                schema(),
                &data,
                "user_id",
                &["region_id", "day"],
                config(),
            )
            .unwrap(),
        );
        let point = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all().and("user_id", ColumnRange::eq(Value::Int(17))),
        };
        let wide = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all().and(
                "user_id",
                ColumnRange::half_open(Value::Int(0), Value::Int(290)),
            ),
        };
        let engine = HadoopDbEngine::new(db);
        let p = engine.run(&point).unwrap();
        let w = engine.run(&wide).unwrap();
        assert!(p.stats.data_records_read * 4 < w.stats.data_records_read);
    }

    #[test]
    fn group_by_and_join_work() {
        let t = TempDir::new("hdb").unwrap();
        let data = rows(2000);
        let mut db = HadoopDb::load(
            t.path(),
            schema(),
            &data,
            "user_id",
            &["region_id", "day"],
            config(),
        )
        .unwrap();
        let right_schema = Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("name", ValueType::Str),
        ]);
        let right_rows: Vec<Row> = (0..300)
            .map(|i| vec![Value::Int(i), Value::Str(format!("u{i}"))])
            .collect();
        db.replicate_right(right_schema, right_rows);
        let db = Arc::new(db);
        let engine = HadoopDbEngine::new(db);

        let gb = Query::GroupBy {
            key: "region_id".into(),
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        };
        let run = engine.run(&gb).unwrap();
        let groups = run.result.into_groups();
        assert_eq!(groups.len(), 11);
        assert_eq!(
            groups.iter().map(|(_, v)| v[0].as_i64().unwrap()).sum::<i64>(),
            2000
        );

        let join = Query::Join {
            left_key: "user_id".into(),
            right_key: "user_id".into(),
            left_project: vec!["power".into()],
            right_project: vec!["name".into()],
            predicate: Predicate::all().and("user_id", ColumnRange::eq(Value::Int(5))),
        };
        let run = engine.run(&join).unwrap();
        let out = run.result.into_rows();
        assert_eq!(out.len(), data.iter().filter(|r| r[0] == Value::Int(5)).count());
        assert!(out.iter().all(|r| r[0] == Value::Str("u5".into())));
    }

    #[test]
    fn invalid_config_rejected() {
        let t = TempDir::new("hdb").unwrap();
        let bad = HadoopDbConfig {
            nodes: 0,
            ..config()
        };
        assert!(HadoopDb::load(t.path(), schema(), &rows(10), "user_id", &[], bad).is_err());
        // Non-integer key column.
        assert!(HadoopDb::load(
            t.path(),
            schema(),
            &rows(10),
            "power",
            &[],
            config()
        )
        .is_err());
    }
}
