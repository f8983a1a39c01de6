//! # dgf-storage
//!
//! The storage substrate: a single-process simulation of HDFS.
//!
//! * [`SimHdfs`] — real local files behind an HDFS-style namespace, with
//!   write-once `create`, positioned readers, and shared I/O counters.
//! * [`NameNode`] — namespace accounting (150 B per dir/file/block object),
//!   reproducing the paper's argument about partition-directory pressure.
//! * [`FileSplit`] — block-granularity MapReduce input splits.
//!
//! The paper's index techniques differ precisely in *which byte ranges of
//! which splits they read*; this crate is where those reads become
//! observable (see [`dgf_common::stats::IoStats`]).

#![warn(missing_docs)]

pub mod hdfs;
pub mod namenode;
pub mod split;

pub use hdfs::{HdfsConfig, HdfsReader, HdfsRef, HdfsWriter, SimHdfs, DEFAULT_BLOCK_SIZE};
pub use namenode::{FileMeta, NameNode, BYTES_PER_OBJECT};
pub use split::{splits_for_file, FileSplit};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Splits partition the file: contiguous, disjoint, covering.
        #[test]
        fn splits_partition_file(len in 0u64..10_000, block in 1u64..512) {
            let splits = splits_for_file("/f", len, block);
            let mut expected_start = 0u64;
            for s in &splits {
                prop_assert_eq!(s.start, expected_start);
                prop_assert!(s.len > 0 && s.len <= block);
                expected_start = s.end();
            }
            prop_assert_eq!(expected_start, len);
        }

        /// Every split except possibly the last is exactly one block.
        #[test]
        fn only_last_split_is_partial(len in 1u64..10_000, block in 1u64..512) {
            let splits = splits_for_file("/f", len, block);
            for s in &splits[..splits.len() - 1] {
                prop_assert_eq!(s.len, block);
            }
        }
    }
}
