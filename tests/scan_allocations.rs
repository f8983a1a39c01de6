//! The row drain must not allocate per row, no drain may allocate per
//! payload byte, decoding a GFU value allocates its header and its
//! slice list, nothing per slice, replaying a log never allocates
//! what a corrupt length prefix claims, and a warm plan allocates a
//! small constant per header it probes.
//!
//! `InputReader::for_each_row` refills one scratch `Row` from each
//! decoded batch, so draining a numeric RCFile table allocates per *group*
//! at most, not per row. A `next_batch` drain, with the predicate's
//! selection run on every batch, allocates a constant whatever the group
//! count: the reader decodes every group into the one batch it lends
//! (a typed vector and a null mask per projected column), reads every
//! frame into the one buffer it keeps, and the selection refines one
//! buffer. A counting global allocator measures both; this file holds a
//! single test so no parallel test pollutes the counters.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgfindex::core::DEFAULT_HEADER_CACHE_CAPACITY;
use dgfindex::format::{RcReader, RcWriter};
use dgfindex::hive::InputReader;
use dgfindex::ingest::{encode_rows, IngestWal};
use dgfindex::kvstore::{KvStore, LogKvStore};
use dgfindex::prelude::*;
use dgfindex::storage::FileSplit;
use dgfindex::workload::{generate_meter_data, meter_schema, MeterConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

#[test]
fn row_wise_drain_allocates_per_group_not_per_row() {
    const N: i64 = 20_000;
    const ROWS_PER_GROUP: usize = 1_000;

    let tmp = TempDir::new("scanalloc").unwrap();
    let hdfs = SimHdfs::new(
        tmp.path(),
        HdfsConfig {
            // Several fetches per drain, several groups per fetch.
            block_size: 1 << 16,
            replication: 1,
        },
    )
    .unwrap();
    // Numeric-only schema: scratch-row refills never touch the heap.
    let schema = Arc::new(Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("v", ValueType::Float),
    ]));
    let mut w = RcWriter::create(&hdfs, "/t/f", schema.clone(), ROWS_PER_GROUP).unwrap();
    for i in 0..N {
        w.write_row(&vec![Value::Int(i), Value::Float(i as f64 * 0.5)])
            .unwrap();
    }
    w.close().unwrap();
    let split = FileSplit::new("/t/f", 0, hdfs.file_len("/t/f").unwrap());

    // Row drain: one scratch row refilled from each batch.
    let reader = InputReader::Rc(Box::new(RcReader::open(&hdfs, schema.clone(), &split).unwrap()));
    let (mut n, mut sum) = (0i64, 0i64);
    let before = allocs();
    reader
        .for_each_row(|_, row| {
            n += 1;
            sum += row[0].as_i64()?;
            Ok(())
        })
        .unwrap();
    let row_allocs = allocs() - before;
    assert_eq!(n, N);
    assert_eq!(sum, N * (N - 1) / 2);

    // Batch drain, as a scan task runs it: the reader's one batch and
    // frame buffer, and one selection buffer the predicate refines for
    // every batch. The bounds cut inside groups, so the selection is a
    // row list for some batches and every row for others.
    let kept = ColumnRange::half_open(Value::Int(1_500), Value::Int(N - 2_500));
    let bound = Predicate::all().and("id", kept).bind(&schema).unwrap();
    let mut reader = RcReader::open(&hdfs, schema.clone(), &split)
        .unwrap()
        .with_projection(vec![0, 1]);
    let (mut n, mut selected, mut groups) = (0i64, 0usize, 0u64);
    let mut rows = Vec::new();
    let (before, bytes_before) = (allocs(), alloc_bytes());
    while let Some(batch) = reader.next_batch().unwrap() {
        n += batch.len() as i64;
        groups += 1;
        selected += std::hint::black_box(bound.select(batch, &mut rows)).len();
    }
    let (batch_allocs, batch_bytes) = (allocs() - before, alloc_bytes() - bytes_before);
    assert_eq!((n, groups), (N, (N as u64).div_ceil(ROWS_PER_GROUP as u64)));
    assert_eq!(selected as i64, N - 4_000);
    // A constant, whatever the group count: the frame buffer (allocated
    // by the first fetch, grown at most once by a longer one), a typed
    // vector and a null mask for each of the two projected columns, and
    // the selection buffer, each sized by the first group.
    assert!(
        batch_allocs <= 1 + 1 + 2 * 2 + 1,
        "batch drain allocated {batch_allocs} times for {groups} groups"
    );
    // Bytes: one group's cells (two eight-byte cells a row), masks and
    // selection (four bytes a row), and one block-sized buffer — neither
    // a batch per group nor a second copy of every payload, which would
    // add the file's length again.
    let file_len = hdfs.file_len("/t/f").unwrap();
    assert!(file_len > 4 * hdfs.block_size());
    let one_group = ROWS_PER_GROUP as u64 * (16 + 4) + 512;
    assert!(
        batch_bytes <= one_group + 2 * hdfs.block_size(),
        "batch drain allocated {batch_bytes} B: {one_group} B a group, file {file_len} B"
    );

    // Per-group overhead only: decode buffers scale with groups (20), not
    // rows (20k). The bound is generous — the claim is the *order*.
    assert!(
        row_allocs < (N / 10) as u64,
        "row drain allocated {row_allocs} times for {N} rows"
    );

    // A one-slice GFU value names its file by id: decoding it allocates
    // the header and the slice vector, and no per-slice path string.
    let value = GfuValue {
        header: vec![7; 29],
        slices: vec![SliceLoc::new(FileId::new(12, 3), 1 << 20, (1 << 20) + 4096)],
        record_count: 29,
    }
    .encode();
    let before = allocs();
    let decoded = GfuValue::decode(&value).unwrap();
    let decode_allocs = allocs() - before;
    assert_eq!(decoded.slices[0].file, FileId::new(12, 3));
    assert!(decode_allocs <= 2, "one-slice value decode allocated {decode_allocs} times");

    // A log whose first length prefix is flipped to 0xFFFF_FFF0 is torn
    // there: opening it allocates about the file, not the four GiB the
    // prefix claims.
    let wal_path = tmp.path().join("ingest.wal");
    {
        let (wal, _) = IngestWal::open(&wal_path, 0).unwrap();
        let rows = vec![vec![Value::Int(1), Value::Float(2.5)]; 40];
        let (_, ticket) = wal.append_batch(1, &encode_rows(&rows)).unwrap();
        wal.sync(ticket).unwrap();
    }
    let kv_path = tmp.path().join("kv.log");
    {
        let kv = LogKvStore::open(&kv_path).unwrap();
        for i in 0..40u32 {
            kv.put(&i.to_be_bytes(), b"value").unwrap();
        }
        kv.flush().unwrap();
    }
    const SLACK: u64 = 64 << 10;
    for path in [&wal_path, &kv_path] {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[..4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
        let before = alloc_bytes();
        let empty = if path == &wal_path {
            IngestWal::open(path, 0).unwrap().1.is_empty()
        } else {
            LogKvStore::open(path).unwrap().is_empty()
        };
        let opened = alloc_bytes() - before;
        assert!(empty, "{path:?}: a torn first frame leaves nothing to replay");
        assert!(
            opened < bytes.len() as u64 + SLACK,
            "opening {path:?} ({} B) allocated {opened} B",
            bytes.len()
        );
    }

    // A warm plan costs cache lookups, not allocations. Over a grid of
    // 250 x 11 x 30 cells, an aggregation whose inner region the pyramid
    // decomposes into thousands of nodes is planned twice; the second
    // plan probes every key in the header cache and hits.
    let cfg = MeterConfig {
        users: 2_000,
        days: 30,
        ..MeterConfig::default()
    };
    let ctx = HiveContext::new(SimHdfs::open(tmp.path().join("wh")).unwrap(), MrEngine::new(1));
    let base = ctx
        .create_table("meter", meter_schema(), FileFormat::Text)
        .unwrap();
    ctx.load_rows(&base, &generate_meter_data(&cfg), 2).unwrap();
    let grid = SplittingPolicy::new(vec![
        DimPolicy::int("user_id", 0, 8),
        DimPolicy::int("region_id", 0, 1),
        DimPolicy::date("ts", cfg.start_day, 1),
    ])
    .unwrap();
    let sum = vec![AggFunc::Sum("power_consumed".into())];
    let kv: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
    let (index, _) = DgfIndex::build(ctx, base, grid, sum.clone(), kv, "midx").unwrap();
    let query = Query::Aggregate {
        aggs: sum.clone(),
        predicate: Predicate::all()
            .and(
                "user_id",
                ColumnRange::half_open(Value::Int(13), Value::Int(1_500)),
            )
            .and(
                "ts",
                ColumnRange::half_open(
                    Value::Date(cfg.start_day + 5),
                    Value::Date(cfg.start_day + 16),
                ),
            ),
    };
    let cold = index.plan(&query, true).unwrap();
    assert!(cold.cache_misses > 0 && cold.pyramid_nodes > 0);
    let before = allocs();
    let warm = index.plan(&query, true).unwrap();
    let plan_allocs = allocs() - before;
    let probed = warm.cache_hits + warm.cache_misses;
    assert_eq!((warm.cache_hits, warm.cache_misses), (probed, 0));
    assert_eq!(warm.inner_states, cold.inner_states);
    assert!(
        plan_allocs <= 2 * probed,
        "a warm plan allocated {plan_allocs} times for {probed} probed keys"
    );
    // Everything the two plans probed fit: nothing was evicted. The flat
    // shape of every cell of the grid, planned over a copy of the store
    // without its pyramid, probes more keys than the cache holds.
    assert_eq!(index.header_cache().stats().evictions, 0);
    let everything = Query::Aggregate {
        aggs: sum.clone(),
        predicate: Predicate::all(),
    };
    let copy: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
    mirror_kv(index.kv.as_ref(), copy.as_ref()).unwrap();
    common::strip_pyramid(copy.as_ref());
    let (ctx, base) = (Arc::clone(&index.ctx), Arc::clone(&index.base));
    let flat = DgfIndex::open(ctx, base, copy, "midx", sum).unwrap();
    let full = flat.plan(&everything, true).unwrap();
    assert!(full.cache_misses as usize > DEFAULT_HEADER_CACHE_CAPACITY);
    assert!(flat.header_cache().stats().evictions > 0);
}
