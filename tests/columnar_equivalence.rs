//! Vectorized ≡ row-wise equivalence (DESIGN.md §12).
//!
//! A scan folds an RCFile's row groups in decoded batches (selection
//! vectors, slice aggregate kernels, projection). It must return
//! **bit-identical** results to the row-at-a-time reference fold below
//! for every query shape, any worker count, any projection, any null
//! pattern and any row-group geometry. The kernels add into the same
//! exact sums as the row path, so the assertion here is `assert_eq!` on
//! `QueryResult` — no float tolerance.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use dgfindex::format::Bitmap;
use dgfindex::hive::{execute_sink, open_input, ScanInput};
use dgfindex::query::{JoinTable, RowSink};
use dgfindex::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn schema() -> SchemaRef {
    Arc::new(Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("cat", ValueType::Int),
        ("power", ValueType::Float),
        ("name", ValueType::Str),
        ("ts", ValueType::Date),
    ]))
}

const BASE_DAY: i64 = 15_000;

/// Random rows with per-cell null holes (never the whole table null).
fn random_rows(rng: &mut StdRng, n: usize, null_p: f64) -> Vec<Row> {
    fn cell(rng: &mut StdRng, null_p: f64, v: Value) -> Value {
        if rng.random_bool(null_p) {
            Value::Null
        } else {
            v
        }
    }
    (0..n)
        .map(|_| {
            let id = Value::Int(rng.random_range(0i64..200));
            let cat = Value::Int(rng.random_range(0i64..6));
            let power = Value::Float(rng.random_range(-50.0..50.0));
            let name = Value::Str(format!("n{}", rng.random_range(0i64..40)));
            let ts = Value::Date(BASE_DAY + rng.random_range(0i64..10));
            vec![
                cell(rng, null_p, id),
                cell(rng, null_p, cat),
                cell(rng, null_p, power),
                cell(rng, null_p, name),
                cell(rng, null_p, ts),
            ]
        })
        .collect()
}

fn random_predicate(rng: &mut StdRng) -> Predicate {
    let mut p = Predicate::all();
    if rng.random_bool(0.6) {
        let lo = rng.random_range(0i64..150);
        let hi = lo + rng.random_range(1i64..120);
        p = p.and("id", ColumnRange::half_open(Value::Int(lo), Value::Int(hi)));
    }
    if rng.random_bool(0.4) {
        p = p.and("cat", ColumnRange::eq(Value::Int(rng.random_range(0i64..6))));
    }
    if rng.random_bool(0.4) {
        let lo = BASE_DAY + rng.random_range(0i64..8);
        p = p.and(
            "ts",
            ColumnRange::half_open(Value::Date(lo), Value::Date(lo + rng.random_range(1i64..5))),
        );
    }
    if rng.random_bool(0.3) {
        p = p.and(
            "power",
            ColumnRange::open(Value::Float(-20.0), Value::Float(30.0)),
        );
    }
    if rng.random_bool(0.2) {
        // A string-typed bound exercises the allocation-free string kernel.
        p = p.and(
            "name",
            ColumnRange::half_open(Value::Str("n1".into()), Value::Str("n3".into())),
        );
    }
    if rng.random_bool(0.5) {
        // A bound of another type than its column's, a NULL bound, or
        // the ends of the i64 line: the batch kernels decide each pairing
        // at bind, and must decide it as the row path's `Value` order does.
        let side = |rng: &mut StdRng, v: Value| match rng.random_range(0u32..3) {
            0 => Bound::Included(v),
            1 => Bound::Excluded(v),
            _ => Bound::Unbounded,
        };
        let (col, lo, hi) = match rng.random_range(0u32..6) {
            0 => (
                "id",
                Value::Float(rng.random_range(-10.0..200.0)),
                Value::Float(rng.random_range(0.0..210.0)),
            ),
            1 => (
                "ts",
                Value::Int(BASE_DAY + rng.random_range(-1i64..9)),
                Value::Int(BASE_DAY + rng.random_range(0i64..11)),
            ),
            2 => (
                "power",
                Value::Int(rng.random_range(-60i64..40)),
                Value::Int(rng.random_range(-40i64..60)),
            ),
            3 => ("cat", Value::Str("c".into()), Value::Str("c".into())),
            4 => {
                let col = ["id", "cat", "power", "name", "ts"][rng.random_range(0..5)];
                (col, Value::Null, Value::Null)
            }
            _ => {
                let range = ColumnRange {
                    low: Bound::Included(Value::Int(i64::MIN)),
                    high: Bound::Excluded(Value::Int(i64::MAX)),
                };
                return p.and("id", range);
            }
        };
        let range = ColumnRange {
            low: side(rng, lo),
            high: side(rng, hi),
        };
        p = p.and(col, range);
    }
    p
}

fn random_query(rng: &mut StdRng) -> Query {
    let predicate = random_predicate(rng);
    match rng.random_range(0u32..4) {
        0 => {
            let pool = [
                AggFunc::Count,
                AggFunc::Sum("power".into()),
                AggFunc::Min("power".into()),
                AggFunc::Max("power".into()),
                AggFunc::Avg("power".into()),
                AggFunc::Min("name".into()),
                AggFunc::Max("ts".into()),
                AggFunc::Sum("id".into()),
            ];
            let mut aggs: Vec<AggFunc> = pool
                .iter()
                .filter(|_| rng.random_bool(0.5))
                .cloned()
                .collect();
            if aggs.is_empty() {
                aggs.push(AggFunc::Sum("power".into()));
            }
            Query::Aggregate { aggs, predicate }
        }
        1 => Query::GroupBy {
            key: "cat".into(),
            aggs: vec![
                AggFunc::Count,
                AggFunc::Sum("power".into()),
                AggFunc::Max("power".into()),
            ],
            predicate,
        },
        2 => {
            let all = ["id", "cat", "power", "name", "ts"];
            let project: Vec<String> = all
                .iter()
                .filter(|_| rng.random_bool(0.4))
                .map(|s| s.to_string())
                .collect();
            // Empty projection means SELECT * — also worth covering.
            Query::Select { project, predicate }
        }
        _ => Query::Join {
            left_key: "id".into(),
            right_key: "uid".into(),
            left_project: vec!["power".into(), "name".into()],
            right_project: vec!["uname".into()],
            predicate,
        },
    }
}

struct World {
    _tmp: TempDir,
    hdfs: dgfindex::storage::HdfsRef,
    table: TableRef,
    users: TableRef,
}

/// Write `rows` as one RCFile table with the given group geometry, plus
/// a small text dimension table for joins.
fn build_world(rows: &[Row], rows_per_group: usize, num_files: usize) -> World {
    let tmp = TempDir::new("coleq").unwrap();
    let hdfs = SimHdfs::new(
        tmp.path(),
        HdfsConfig {
            block_size: 4 * 1024,
            replication: 1,
        },
    )
    .unwrap();
    let ctx = HiveContext::new(hdfs.clone(), MrEngine::new(1));
    let created = ctx.create_table("t", schema(), FileFormat::RcFile).unwrap();
    let mut desc = (*created).clone();
    desc.rows_per_group = rows_per_group;
    ctx.load_rows(&desc, rows, num_files).unwrap();

    let user_schema = Arc::new(Schema::from_pairs(&[
        ("uid", ValueType::Int),
        ("uname", ValueType::Str),
    ]));
    let users = ctx
        .create_table("users", user_schema, FileFormat::Text)
        .unwrap();
    let user_rows: Vec<Row> = (0..200)
        .map(|i| vec![Value::Int(i), Value::Str(format!("u{i}"))])
        .collect();
    ctx.load_rows(&users, &user_rows, 1).unwrap();

    World {
        _tmp: tmp,
        hdfs,
        table: Arc::new(desc),
        users,
    }
}

/// Run `query` with the given worker count on a fresh context over the
/// world's files.
fn run_with(w: &World, query: &Query, workers: usize) -> QueryResult {
    let ctx = HiveContext::new(w.hdfs.clone(), MrEngine::new(workers));
    ScanEngine::new(ctx, Arc::clone(&w.table))
        .with_right(Arc::clone(&w.users))
        .run(query)
        .unwrap()
        .result
}

/// The row-at-a-time reference: each input's rows, copied out of its
/// batches one at a time, fold into a sink of their own through the row
/// predicate, and the sinks merge in input order.
fn rowwise(w: &World, query: &Query, inputs: Vec<ScanInput>) -> QueryResult {
    let ctx = HiveContext::new(w.hdfs.clone(), MrEngine::new(1));
    let users = &w.users.schema;
    let right = match query {
        Query::Join {
            right_key,
            right_project,
            ..
        } => {
            let project: Vec<usize> =
                right_project.iter().map(|c| users.index_of(c).unwrap()).collect();
            let rows = ctx.read_all(&w.users).unwrap();
            let key = users.index_of(right_key).unwrap();
            Some((&**users, Arc::new(JoinTable::new(&rows, key, &project))))
        }
        _ => None,
    };
    let total = RowSink::new(query, &w.table.schema, right).unwrap();
    let bound = query.predicate().bind(&w.table.schema).unwrap();
    let mut merged: Option<RowSink> = None;
    for input in inputs {
        let mut sink = total.sibling();
        open_input(&ctx, &w.table, &input)
            .unwrap()
            .for_each_row(|_, row| sink.push_if(row, &bound).map(drop))
            .unwrap();
        match &mut merged {
            Some(m) => m.merge(sink).unwrap(),
            None => merged = Some(sink),
        }
    }
    merged.unwrap_or(total).finish()
}

/// The full matrix: the row-wise reference over the table's splits vs
/// the scan at 1, 2 and 8 map workers, all bit-identical.
fn assert_equivalent(w: &World, query: &Query, label: &str) {
    let splits = w.hdfs.splits_for_dir(&w.table.location);
    let oracle = rowwise(w, query, splits.into_iter().map(ScanInput::FullSplit).collect());
    for workers in [1usize, 2, 8] {
        assert_eq!(
            run_with(w, query, workers),
            oracle,
            "{label}: workers={workers} diverged from the row-wise reference"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random rows, null patterns, group geometry, file counts, query
    /// shapes and predicates: every worker count returns exactly the
    /// row-wise reference's answer.
    #[test]
    fn vectorized_path_is_bit_identical_to_rowwise(
        seed in 0u64..1_000_000,
        n_rows in 0usize..600,
        rows_per_group in 1usize..64,
        num_files in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let null_p = if rng.random_bool(0.2) { 0.5 } else { 0.1 };
        let rows = random_rows(&mut rng, n_rows, null_p);
        let w = build_world(&rows, rows_per_group, num_files);
        for q in 0..3 {
            let query = random_query(&mut rng);
            assert_equivalent(&w, &query, &format!("seed {seed} query {q}"));
        }
    }
}

#[test]
fn empty_table_and_all_filtered_batches() {
    // Zero groups: the batched reader must hand back nothing, not panic.
    let w = build_world(&[], 8, 1);
    let count = Query::Aggregate {
        aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
        predicate: Predicate::all(),
    };
    assert_equivalent(&w, &count, "empty table");

    // Every batch filtered out: selections are empty in every group.
    let mut rng = StdRng::seed_from_u64(7);
    let rows = random_rows(&mut rng, 100, 0.1);
    let w = build_world(&rows, 8, 2);
    let none = Query::Aggregate {
        aggs: vec![AggFunc::Count, AggFunc::Min("power".into())],
        predicate: Predicate::all().and("id", ColumnRange::eq(Value::Int(1_000_000))),
    };
    assert_equivalent(&w, &none, "all filtered");
}

#[test]
fn last_partial_group_round_trips() {
    // 10 rows in groups of 4: the final group holds 2 rows.
    let mut rng = StdRng::seed_from_u64(11);
    let rows = random_rows(&mut rng, 10, 0.2);
    let w = build_world(&rows, 4, 1);
    let q = Query::Select {
        project: vec![],
        predicate: Predicate::all(),
    };
    assert_equivalent(&w, &q, "partial last group");
}

#[test]
fn row_filter_with_empty_bitmap_group_matches_rowwise() {
    // An RcFiltered input whose bitmap keeps no rows of group 0 produces
    // an *empty batch* (the group is still fetched); a group absent from
    // the map is never fetched at all. The scan and the row-wise
    // reference must agree.
    let mut rng = StdRng::seed_from_u64(23);
    let rows = random_rows(&mut rng, 30, 0.1);
    let w = build_world(&rows, 10, 1);
    let path = w.hdfs.list_files(&w.table.location)[0].0.clone();
    let footer = dgfindex::format::read_footer(&w.hdfs, &path).unwrap();
    let offsets = footer.group_offsets();
    assert_eq!(offsets.len(), 3);
    let mut filter: HashMap<u64, Bitmap> = HashMap::new();
    filter.insert(offsets[0], Bitmap::new()); // fetched, all rows dropped
    filter.insert(offsets[1], [1usize, 3, 9].into_iter().collect());
    // offsets[2] absent: never fetched.
    let query = Query::Aggregate {
        aggs: vec![AggFunc::Count, AggFunc::Sum("power".into())],
        predicate: Predicate::all(),
    };
    let len = w.hdfs.file_len(&path).unwrap();
    let input = ScanInput::RcFiltered {
        split: dgfindex::storage::FileSplit::new(path, 0, len),
        row_filter: filter,
    };
    let ctx = HiveContext::new(w.hdfs.clone(), MrEngine::new(2));
    let scanned = execute_sink(&ctx, &w.table, &query, None, vec![input.clone()]).unwrap().finish();
    assert_eq!(scanned, rowwise(&w, &query, vec![input]));
    // Exactly the 3 surviving rows of group 1 were counted.
    assert_eq!(scanned.into_scalars()[0], Value::Int(3));
}
