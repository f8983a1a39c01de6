//! # dgfindex
//!
//! A from-scratch Rust reproduction of **“DGFIndex for Smart Grid:
//! Enhancing Hive with a Cost-Effective Multidimensional Range Index”**
//! (Liu et al., VLDB 2014): the DGFIndex grid-file index with pre-computed
//! per-cell aggregation headers, plus every substrate it needs — a
//! simulated HDFS, a MapReduce engine, Hive-style file formats and
//! baseline indexes (Compact / Aggregate / Bitmap), a key-value store
//! standing in for HBase, a HadoopDB-style comparator, and workload
//! generators for the paper's smart-meter and TPC-H evaluations.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names and carries the runnable examples and cross-crate integration
//! tests.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use dgfindex::prelude::*;
//!
//! # fn main() -> dgfindex::common::Result<()> {
//! // A simulated cluster and warehouse.
//! let tmp = TempDir::new("readme")?;
//! let hdfs = SimHdfs::open(tmp.path())?;
//! let ctx = HiveContext::new(hdfs, MrEngine::new(2));
//!
//! // A tiny table (the paper's Figure 5 example).
//! let schema = Arc::new(Schema::from_pairs(&[
//!     ("A", ValueType::Int),
//!     ("B", ValueType::Int),
//!     ("C", ValueType::Float),
//! ]));
//! let table = ctx.create_table("fig5", schema, FileFormat::Text)?;
//! ctx.load_rows(&table, &dgfindex::core::index::paper_figure5_rows(), 1)?;
//!
//! // Build a DGFIndex with the paper's splitting policy, pre-computing sum(C).
//! let (index, _report) = DgfIndex::build(
//!     Arc::clone(&ctx),
//!     table,
//!     dgfindex::core::index::paper_figure5_policy(),
//!     vec![AggFunc::Sum("C".into())],
//!     Arc::new(MemKvStore::new()),
//!     "dgf_fig5",
//! )?;
//!
//! // The paper's Listing 2 query.
//! let run = DgfEngine::new(Arc::new(index)).run(&Query::Aggregate {
//!     aggs: vec![AggFunc::Sum("C".into())],
//!     predicate: Predicate::all()
//!         .and("A", ColumnRange::half_open(Value::Int(5), Value::Int(12)))
//!         .and("B", ColumnRange::half_open(Value::Int(12), Value::Int(16))),
//! })?;
//! assert_eq!(run.result.into_scalars(), vec![Value::Float(2.2)]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use dgf_common as common;
pub use dgf_core as core;
pub use dgf_format as format;
pub use dgf_hadoopdb as hadoopdb;
pub use dgf_hive as hive;
pub use dgf_ingest as ingest;
pub use dgf_kvstore as kvstore;
pub use dgf_mapreduce as mapreduce;
pub use dgf_query as query;
pub use dgf_rdbms as rdbms;
pub use dgf_serve as serve;
pub use dgf_storage as storage;
pub use dgf_workload as workload;

/// The most commonly used types, importable with one `use`.
pub mod prelude {
    pub use dgf_common::{
        format_date, parse_date, Row, Schema, SchemaRef, TempDir, Value, ValueType,
    };
    pub use dgf_common::{FaultConfig, FaultPlan, RetryPolicy};
    pub use dgf_core::{
        DgfEngine, DgfIndex, DimPolicy, Extents, FileId, GfuKey, GfuValue, IndexOptions,
        PlanStrategy, SliceLoc, SplittingPolicy,
    };
    pub use dgf_format::FileFormat;
    pub use dgf_hive::{
        AggregateIndex, AggregateIndexEngine, BitmapEngine, BitmapIndex, CompactEngine,
        CompactIndex, HiveContext, PartitionEngine, PartitionedTable, ScanEngine, ScanOptions,
        TableRef,
    };
    pub use dgf_ingest::{IngestConfig, StreamIngestor};
    pub use dgf_hive::ServeOptions;
    pub use dgf_kvstore::{
        ChaosKv, FanoutStats, KvStore, LatencyKv, LatencyModel, LogKvStore, MemKvStore, ShardedKv,
    };
    pub use dgf_mapreduce::MrEngine;
    pub use dgf_serve::{mirror_kv, shard_boundaries, sharded_mem, ServeFrontend, ServeReport};
    pub use dgf_query::{
        AggFunc, ColumnRange, Engine, EngineRun, Predicate, Query, QueryResult, RunStats,
    };
    pub use dgf_storage::{HdfsConfig, SimHdfs};
}
