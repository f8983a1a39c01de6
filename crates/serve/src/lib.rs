//! The sharded scatter-gather serving tier (DESIGN.md §13).
//!
//! Two pieces turn the single-node engine into a serving stack:
//!
//! * [`shardmap`] — where to split the GFU keyspace: odometer-rank
//!   boundaries that keep stretches of consecutive cells contiguous per
//!   shard and
//!   route all metadata (everything above the `g:` prefix, including
//!   the aggregate pyramid's `p:` nodes) to the last shard, preserving
//!   the commit protocol's single-shard atomicity.
//! * [`frontend`] — [`ServeFrontend`] adds admission control (the
//!   ingest byte-reservation pattern) and a bounded worker pool over a
//!   [`DgfEngine`](dgf_core::DgfEngine), multiplexing many concurrent
//!   MDRQs without ever changing an answer byte.
//!
//! The scatter itself lives below this crate: every plan reads its keys
//! with one batched `multi_get`, and the
//! [`ShardedKv`](dgf_kvstore::ShardedKv) router fans that batch out per
//! shard (an aggregation the pyramid can answer finds its nodes on the
//! metadata shard). Aggregate states merge in any order to the same
//! bits — which is why every answer is bit-identical to the single-node
//! engine at any shard count (`tests/serving_equivalence.rs` proves it
//! for 1, 2, 4 and 7 shards).

#![warn(missing_docs)]

pub mod frontend;
pub mod shardmap;

pub use frontend::{
    record_fanout_into, ServeFrontend, ServeReport, ServeStats, ServeStatsSnapshot, ServedQuery,
};
pub use shardmap::{mirror_kv, shard_boundaries, sharded_mem};
