//! # dgf-ingest
//!
//! Streaming ingestion for the DGFIndex: a WAL-backed memtable write
//! path that makes meter rows query-visible the moment they are
//! acknowledged, while the existing staged-commit machinery keeps every
//! persisted structure crash-atomic.
//!
//! The paper's load path (§4.2) is batch: reorganize a file of new rows
//! into Slices with a MapReduce job. Real meter head-ends, though, hand
//! the warehouse a continuous trickle of small batches, and committing
//! Slices per batch would litter the data directory with tiny files and
//! churn the header cache (every append bumps the planner's cache
//! generation).
//! This crate adds the standard LSM-style answer on top of the paper's
//! design:
//!
//! * [`IngestWal`] — acknowledged batches first hit a checksummed
//!   write-ahead log (the same record framing as the key-value store's
//!   log), group-committed so concurrent writers share syncs.
//! * a memtable of [`GfuCells`](dgf_core::GfuCells): per-GFU buffers
//!   folding the very headers (`sum`/`count`/`min`/`max`) a flush writes
//!   for their rows, registered with the index as its
//!   [`FreshSource`](dgf_core::FreshSource): query plans merge buffered
//!   cells with persisted headers (covered cells through the header
//!   path, boundary cells as re-filtered rows) with **zero** header-cache
//!   generation bumps between flushes.
//! * [`StreamIngestor`] — the front-end tying them together: admission
//!   control with [`Backpressure`](dgf_common::DgfError::Backpressure)
//!   rejections, an inline flush when the buffer fills, a background
//!   flusher for aged buffers, and crash recovery (WAL replay restores
//!   unflushed batches; the flush's watermark advance rides the commit
//!   manifest, so replay knows exactly which batches are already in
//!   Slices).

#![warn(missing_docs)]

pub mod ingest;
mod memtable;
pub mod wal;

pub use ingest::{IngestConfig, IngestShared, IngestStats, IngestStatsSnapshot, StreamIngestor};
pub use wal::{encode_rows, IngestWal, WalBatch};
