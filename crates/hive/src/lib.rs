//! # dgf-hive
//!
//! A miniature Hive: metastore + MapReduce scan execution + the three
//! index types the paper compares DGFIndex against, plus Hive-style
//! partitioning.
//!
//! * [`HiveContext`] — metastore, table loading, split enumeration;
//!   [`TableWriter`] is the one writer of a table's files.
//! * [`ScanEngine`] — the "ScanTable-based" full-scan baseline.
//! * [`CompactIndex`] — index table of (dims, file, offsets); split-granular
//!   filtering (paper §2.2, HIVE-417).
//! * [`AggregateIndex`] — Compact + pre-computed `count(*)`, answering
//!   eligible GROUP BY queries from the index table alone (HIVE-1694).
//! * [`BitmapIndex`] — Compact + per-row-group bitmaps on RCFile tables
//!   (HIVE-1803).
//! * [`PartitionedTable`] — one directory per partition value, with pruning
//!   and NameNode-pressure accounting.
//!
//! The three indexes are one index table that differs only in its payload
//! columns: one MapReduce job builds it and one probe reads it
//! ([`index_common`]). Every engine that reads base splits — the scan, the
//! Compact and Bitmap indexes, partition pruning — plans a [`ScanPlan`] and
//! hands it to one measured run, so all of them fill
//! [`RunStats`](dgf_query::RunStats) the same way.
//!
//! Every engine implements [`dgf_query::Engine`] and therefore returns the
//! same `QueryResult` type — tests assert all of them agree with the scan
//! ground truth, so the benchmark comparisons measure cost, never
//! correctness drift.

#![warn(missing_docs)]

pub mod aggidx;
pub mod bitmapidx;
pub mod catalog;
pub mod compact;
pub mod context;
pub mod index_common;
pub mod partition;
pub mod scan;

pub use aggidx::{AggregateIndex, AggregateIndexEngine};
pub use bitmapidx::{BitmapEngine, BitmapIndex};
pub use compact::{CompactEngine, CompactIndex};
pub use context::{HiveContext, ScanOptions, ServeOptions, TableDesc, TableRef, TableWriter};
pub use catalog::{IndexEntry, CATALOG_PATH};
pub use index_common::BuildReport;
pub use partition::{PartitionEngine, PartitionedTable};
pub use scan::{
    attach_scan_to_span, execute_sink, open_input, InputReader, ScanEngine, ScanInput, ScanPlan,
};
