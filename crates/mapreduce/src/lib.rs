//! # dgf-mapreduce
//!
//! A miniature in-process MapReduce engine: the execution substrate for
//! both index construction (paper §4.2, Algorithms 1–2) and query
//! execution (scan jobs with map-side filtering and partial aggregation).
//!
//! The engine preserves the structure that matters for the reproduction:
//!
//! * one **map task per input split**, run on a bounded worker pool (the
//!   paper's cluster runs up to 5 mappers per node);
//! * a **deterministic hash shuffle** into `R` partitions (FNV-1a, so
//!   reducer output placement is reproducible run to run);
//! * **sorted, grouped reduce input**, with one reduce *task* per
//!   partition — the reducer callback owns the whole task so it can open
//!   one output file per task exactly like a Hadoop reducer;
//! * optional **combiners** for map-side partial aggregation;
//! * **job counters** (map input/output records, reduce groups, shuffled
//!   pairs) used by benches to attribute work.

#![warn(missing_docs)]

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use dgf_common::obs::names;
use dgf_common::{counter_block, run_scoped, DgfError, Result, Stopwatch};

/// Deterministic FNV-1a `Hasher` so shuffle partitioning is stable across
/// runs and platforms (std's `RandomState` is seeded per process).
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash a key to its reduce partition.
pub fn partition_of<K: Hash>(key: &K, num_reducers: usize) -> usize {
    let mut h = FnvHasher::default();
    key.hash(&mut h);
    (h.finish() % num_reducers as u64) as usize
}

counter_block! {
    /// Counters accumulated over a job run.
    pub struct JobCounters, snapshot JobCounts {
        /// Inputs consumed by map tasks.
        map_inputs: names::MR_MAP_INPUTS,
        /// Pairs emitted by mappers (before combining).
        map_outputs: names::MR_MAP_OUTPUTS,
        /// Pairs crossing the shuffle (after combining).
        shuffled_pairs: names::MR_SHUFFLED_PAIRS,
        /// Distinct keys seen by reducers.
        reduce_groups: names::MR_REDUCE_GROUPS,
    }
}

/// Timing and counter report for a finished job.
#[derive(Debug, Default, Clone)]
pub struct JobReport {
    /// What the tasks counted.
    pub counts: JobCounts,
    /// Wall time of the map phase (includes combine).
    pub map_time: Duration,
    /// Wall time of shuffle sort + reduce phase.
    pub reduce_time: Duration,
}

impl JobReport {
    /// Attach this report's counters to a span under the `mr.*` metric
    /// names (phase wall times become microsecond counters), so MapReduce
    /// stages show up in a [`QueryProfile`](dgf_common::obs::QueryProfile).
    pub fn attach_to_span(&self, span: &dgf_common::obs::SpanGuard) {
        self.counts.attach_to_span(span);
        for (name, time) in [
            (names::MR_MAP_TIME_US, self.map_time),
            (names::MR_REDUCE_TIME_US, self.reduce_time),
        ] {
            if !time.is_zero() {
                span.add(name, time.as_micros() as u64);
            }
        }
    }
}

/// Output of a job: one `T` per reduce task (or per map task for
/// map-only jobs), plus the report.
#[derive(Debug)]
pub struct JobOutput<T> {
    /// Task outputs. For map-reduce jobs, index = reducer id; for map-only
    /// jobs, index = input order.
    pub outputs: Vec<T>,
    /// Counters and timings.
    pub report: JobReport,
}

/// Collects mapper emissions, partitioned for the shuffle.
pub struct Emitter<K, V> {
    partitions: Vec<Vec<(K, V)>>,
    emitted: u64,
}

impl<K: Hash, V> Emitter<K, V> {
    fn new(num_reducers: usize) -> Self {
        Emitter {
            partitions: (0..num_reducers).map(|_| Vec::new()).collect(),
            emitted: 0,
        }
    }

    /// Emit one intermediate pair.
    pub fn emit(&mut self, key: K, value: V) {
        let p = partition_of(&key, self.partitions.len());
        self.partitions[p].push((key, value));
        self.emitted += 1;
    }
}

/// The engine: a bounded pool of workers, the calling thread among
/// them, shared by the map and reduce phases of each submitted job.
#[derive(Debug, Clone)]
pub struct MrEngine {
    threads: usize,
}

impl Default for MrEngine {
    fn default() -> Self {
        MrEngine::new(default_parallelism())
    }
}

/// Worker threads used by [`MrEngine::default`].
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

/// A map function: `(task_id, input, emitter)`.
pub type MapFn<'a, I, K, V> = &'a (dyn Fn(usize, I, &mut Emitter<K, V>) -> Result<()> + Sync);
/// A combine function: `(key, values) -> combined values`.
pub type CombineFn<'a, K, V> = &'a (dyn Fn(&K, Vec<V>) -> Result<Vec<V>> + Sync);
/// A reduce-task function: `(task_id, sorted groups) -> task output`.
pub type ReduceTaskFn<'a, K, V, T> = &'a (dyn Fn(usize, Vec<(K, Vec<V>)>) -> Result<T> + Sync);

impl MrEngine {
    /// An engine with `threads` workers (at least 1).
    ///
    /// A phase starts `min(threads, tasks)` workers, and the calling
    /// thread is one of them ([`run_scoped`]): a one-task phase spawns no
    /// thread, and a phase with no tasks runs nothing. A task that panics,
    /// on whichever thread, fails the job with [`DgfError::Job`].
    pub fn new(threads: usize) -> Self {
        MrEngine {
            threads: threads.max(1),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run a full map-shuffle-reduce job: the shuffle sends each key to
    /// the reducer its hash names (Hadoop's default partitioner).
    pub fn map_reduce<I, K, V, T>(
        &self,
        inputs: Vec<I>,
        num_reducers: usize,
        mapper: MapFn<'_, I, K, V>,
        combiner: Option<CombineFn<'_, K, V>>,
        reduce_task: ReduceTaskFn<'_, K, V, T>,
    ) -> Result<JobOutput<T>>
    where
        I: Send,
        K: Ord + Hash + Clone + Send,
        V: Send,
        T: Send,
    {
        if num_reducers == 0 {
            return Err(DgfError::Job(
                "map_reduce requires at least 1 reducer".into(),
            ));
        }
        let counters = JobCounters::default();
        let mut report = JobReport::default();

        // ---- Map phase -----------------------------------------------
        let map_watch = Stopwatch::start();
        // Each map task's output for a partition is kept as one run
        // tagged with its task id. Tasks finish in scheduling order, and
        // appending runs as they arrive would make the value order inside
        // a reduce group — row order inside a Slice — depend on thread
        // timing.
        type Runs<K, V> = Mutex<Vec<(usize, Vec<(K, V)>)>>;
        let partition_buckets: Vec<Runs<K, V>> =
            (0..num_reducers).map(|_| Mutex::new(Vec::new())).collect();
        {
            let workers = self.threads.min(inputs.len());
            let work: Mutex<std::vec::IntoIter<(usize, I)>> = Mutex::new(
                inputs
                    .into_iter()
                    .enumerate()
                    .collect::<Vec<_>>()
                    .into_iter(),
            );
            let first_err: Mutex<Option<DgfError>> = Mutex::new(None);
            let worker = || loop {
                if first_err.lock().is_some() {
                    return;
                }
                let item = work.lock().next();
                let Some((task_id, input)) = item else { return };
                counters.map_inputs.inc();
                let mut emitter = Emitter::new(num_reducers);
                let run = || -> Result<()> {
                    mapper(task_id, input, &mut emitter)?;
                    counters.map_outputs.add(emitter.emitted);
                    for (p, mut pairs) in emitter.partitions.drain(..).enumerate() {
                        if pairs.is_empty() {
                            continue;
                        }
                        if let Some(c) = combiner {
                            pairs = combine_pairs(pairs, c)?;
                        }
                        counters.shuffled_pairs.add(pairs.len() as u64);
                        partition_buckets[p].lock().push((task_id, pairs));
                    }
                    Ok(())
                };
                if let Err(e) = run() {
                    let mut slot = first_err.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    return;
                }
            };
            run_scoped("a map task", (0..workers).map(|_| &worker))?;
            if let Some(e) = first_err.into_inner() {
                return Err(e);
            }
        }
        report.map_time = map_watch.elapsed();

        // ---- Shuffle sort + reduce phase -----------------------------
        let reduce_watch = Stopwatch::start();
        let mut outputs: Vec<Option<T>> = (0..num_reducers).map(|_| None).collect();
        {
            type TaskSlot<K, V> = Mutex<Option<Vec<(K, V)>>>;
            let tasks: Vec<TaskSlot<K, V>> = partition_buckets
                .into_iter()
                .map(|m| {
                    // Concatenate in task order; `group_sorted` is stable.
                    let mut runs = m.into_inner();
                    runs.sort_by_key(|(task_id, _)| *task_id);
                    Mutex::new(Some(runs.into_iter().flat_map(|(_, pairs)| pairs).collect()))
                })
                .collect();
            let out_slots: Vec<Mutex<&mut Option<T>>> =
                outputs.iter_mut().map(Mutex::new).collect();
            let next_task = AtomicUsize::new(0);
            let first_err: Mutex<Option<DgfError>> = Mutex::new(None);
            let worker = || loop {
                if first_err.lock().is_some() {
                    return;
                }
                let tid = next_task.fetch_add(1, Ordering::Relaxed);
                if tid >= num_reducers {
                    return;
                }
                let pairs = tasks[tid].lock().take().expect("task taken once");
                let groups = group_sorted(pairs);
                counters.reduce_groups.add(groups.len() as u64);
                match reduce_task(tid, groups) {
                    Ok(t) => **out_slots[tid].lock() = Some(t),
                    Err(e) => {
                        let mut slot = first_err.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        return;
                    }
                }
            };
            run_scoped(
                "a reduce task",
                (0..self.threads.min(num_reducers)).map(|_| &worker),
            )?;
            if let Some(e) = first_err.into_inner() {
                return Err(e);
            }
        }
        report.reduce_time = reduce_watch.elapsed();
        report.counts = counters.snapshot();

        let outputs = outputs
            .into_iter()
            .map(|o| o.ok_or_else(|| DgfError::Job("reduce task produced no output".into())))
            .collect::<Result<Vec<T>>>()?;
        Ok(JobOutput { outputs, report })
    }

    /// Run a map-only job: one output per input, in input order.
    pub fn map_only<I, T>(
        &self,
        inputs: Vec<I>,
        mapper: &(dyn Fn(usize, I) -> Result<T> + Sync),
    ) -> Result<JobOutput<T>>
    where
        I: Send,
        T: Send,
    {
        let n = inputs.len();
        let watch = Stopwatch::start();
        let mut outputs: Vec<Option<T>> = (0..n).map(|_| None).collect();
        {
            let work: Mutex<std::vec::IntoIter<(usize, I)>> = Mutex::new(
                inputs
                    .into_iter()
                    .enumerate()
                    .collect::<Vec<_>>()
                    .into_iter(),
            );
            let out_slots: Vec<Mutex<&mut Option<T>>> =
                outputs.iter_mut().map(Mutex::new).collect();
            let first_err: Mutex<Option<DgfError>> = Mutex::new(None);
            let worker = || loop {
                if first_err.lock().is_some() {
                    return;
                }
                let item = work.lock().next();
                let Some((task_id, input)) = item else { return };
                match mapper(task_id, input) {
                    Ok(t) => **out_slots[task_id].lock() = Some(t),
                    Err(e) => {
                        let mut slot = first_err.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        return;
                    }
                }
            };
            run_scoped("a map task", (0..self.threads.min(n)).map(|_| &worker))?;
            if let Some(e) = first_err.into_inner() {
                return Err(e);
            }
        }
        let outputs = outputs
            .into_iter()
            .map(|o| o.ok_or_else(|| DgfError::Job("map task produced no output".into())))
            .collect::<Result<Vec<T>>>()?;
        let report = JobReport {
            counts: JobCounts {
                map_inputs: n as u64,
                ..JobCounts::default()
            },
            map_time: watch.elapsed(),
            ..JobReport::default()
        };
        Ok(JobOutput { outputs, report })
    }
}

fn combine_pairs<K: Ord + Clone, V>(
    pairs: Vec<(K, V)>,
    c: CombineFn<'_, K, V>,
) -> Result<Vec<(K, V)>> {
    let groups = group_sorted(pairs);
    let mut out = Vec::with_capacity(groups.len());
    for (k, vs) in groups {
        for v in c(&k, vs)? {
            out.push((k.clone(), v));
        }
    }
    Ok(out)
}

/// Sort pairs by key and group equal keys. Values within a group are
/// unordered, as in Hadoop without a secondary sort.
fn group_sorted<K: Ord, V>(mut pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in pairs {
        match out.last_mut() {
            Some((lk, vs)) if *lk == k => vs.push(v),
            _ => out.push((k, vec![v])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The canonical word count, exercising map, combine, shuffle, reduce.
    #[test]
    fn word_count() {
        let engine = MrEngine::new(4);
        let docs = vec![
            "a b a".to_owned(),
            "b c".to_owned(),
            "a c c".to_owned(),
            String::new(),
        ];
        let out = engine
            .map_reduce(
                docs,
                3,
                &|_, doc, e| {
                    for w in doc.split_whitespace() {
                        e.emit(w.to_owned(), 1u64);
                    }
                    Ok(())
                },
                Some(&|_, vs| Ok(vec![vs.iter().sum::<u64>()])),
                &|_, groups| {
                    Ok(groups
                        .into_iter()
                        .map(|(k, vs)| (k, vs.iter().sum::<u64>()))
                        .collect::<Vec<_>>())
                },
            )
            .unwrap();
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for task in out.outputs {
            for (k, v) in task {
                assert!(counts.insert(k, v).is_none(), "key must be in one partition");
            }
        }
        assert_eq!(counts.get("a"), Some(&3));
        assert_eq!(counts.get("b"), Some(&2));
        assert_eq!(counts.get("c"), Some(&3));
        assert_eq!(out.report.counts.map_inputs, 4);
        assert_eq!(out.report.counts.map_outputs, 8);
        // Combiner collapses within-mapper duplicates, so shuffled <= emitted.
        assert!(out.report.counts.shuffled_pairs <= out.report.counts.map_outputs);
        assert_eq!(out.report.counts.reduce_groups, 3);
    }

    /// A panicking task is the job's error, in every phase, and the
    /// engine stays usable.
    #[test]
    fn a_panicking_task_is_a_job_error() {
        let engine = MrEngine::new(3);
        let is_job = |r: Result<()>| matches!(r, Err(DgfError::Job(m)) if m.contains("panicked"));
        let map = engine.map_only((0..8).collect(), &|_, x: u32| -> Result<u32> {
            assert!(x != 5, "mapper boom");
            Ok(x)
        });
        assert!(is_job(map.map(|_| ())));
        // A one-input map runs its only task on the calling thread.
        let alone = engine.map_only(vec![5u32], &|_, x: u32| -> Result<u32> {
            assert!(x != 5, "mapper boom");
            Ok(x)
        });
        assert!(is_job(alone.map(|_| ())));
        let reduce = engine.map_reduce(
            vec![vec![1u32, 2, 3]],
            2,
            &|_, xs: Vec<u32>, e| {
                for x in xs {
                    e.emit(x, ());
                }
                Ok(())
            },
            None,
            &|tid, _| -> Result<()> {
                assert!(tid != 1, "reducer boom");
                Ok(())
            },
        );
        assert!(is_job(reduce.map(|_| ())));
        let shuffle = engine.map_reduce(
            vec![0u32, 1],
            1,
            &|_, x: u32, e| {
                assert!(x != 1, "map-side boom");
                e.emit(x, ());
                Ok(())
            },
            None,
            &|_, _| Ok(()),
        );
        assert!(is_job(shuffle.map(|_| ())));
        let sum: u32 = engine.map_only(vec![1u32, 2], &|_, x| Ok(x)).unwrap().outputs.iter().sum();
        assert_eq!(sum, 3);
    }

    #[test]
    fn reduce_input_is_sorted_and_grouped() {
        let engine = MrEngine::new(2);
        let out = engine
            .map_reduce(
                vec![vec![3, 1, 2, 1, 3, 3]],
                1,
                &|_, xs: Vec<i32>, e| {
                    for x in xs {
                        e.emit(x, ());
                    }
                    Ok(())
                },
                None,
                &|_, groups| {
                    let keys: Vec<i32> = groups.iter().map(|(k, _)| *k).collect();
                    assert_eq!(keys, vec![1, 2, 3]);
                    let sizes: Vec<usize> = groups.iter().map(|(_, v)| v.len()).collect();
                    assert_eq!(sizes, vec![2, 1, 3]);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(out.outputs.len(), 1);
    }

    #[test]
    fn partitioning_is_deterministic_and_in_range() {
        for r in 1..8usize {
            let p = partition_of(&"key", r);
            assert!(p < r);
            assert_eq!(p, partition_of(&"key", r));
        }
    }

    #[test]
    fn map_errors_abort_the_job() {
        let engine = MrEngine::new(4);
        let res = engine.map_reduce(
            vec![1, 2, 3],
            1,
            &|_, x: i32, e: &mut Emitter<i32, ()>| {
                if x == 2 {
                    return Err(DgfError::Job("boom".into()));
                }
                e.emit(x, ());
                Ok(())
            },
            None,
            &|_, _| Ok(()),
        );
        assert!(matches!(res, Err(DgfError::Job(m)) if m == "boom"));
    }

    #[test]
    fn reduce_errors_abort_the_job() {
        let engine = MrEngine::new(2);
        let res = engine.map_reduce(
            vec![1],
            2,
            &|_, x: i32, e| {
                e.emit(x, ());
                Ok(())
            },
            None,
            &|tid, _| -> Result<()> {
                if tid == 0 {
                    Err(DgfError::Job("r".into()))
                } else {
                    Ok(())
                }
            },
        );
        assert!(res.is_err());
    }

    #[test]
    fn map_only_preserves_input_order() {
        let engine = MrEngine::new(4);
        let out = engine
            .map_only(vec![10, 20, 30, 40], &|tid, x: i32| Ok((tid, x * 2)))
            .unwrap();
        assert_eq!(out.outputs, vec![(0, 20), (1, 40), (2, 60), (3, 80)]);
        // One input is one task, run on the calling thread: no worker is
        // spawned for it.
        let caller = std::thread::current().id();
        let out = engine
            .map_only(vec![7], &|_, x: i32| Ok((std::thread::current().id(), x)))
            .unwrap();
        assert_eq!(out.outputs, vec![(caller, 7)]);
    }

    #[test]
    fn single_thread_engine_works() {
        let engine = MrEngine::new(1);
        let out = engine
            .map_reduce(
                vec![vec![1, 2], vec![3]],
                2,
                &|_, xs: Vec<i32>, e| {
                    for x in xs {
                        e.emit(x % 2, x as u64);
                    }
                    Ok(())
                },
                None,
                &|_, groups| Ok(groups.into_iter().map(|(_, v)| v.len()).sum::<usize>()),
            )
            .unwrap();
        assert_eq!(out.outputs.iter().sum::<usize>(), 3);
    }

    #[test]
    fn empty_input_still_runs_reducers() {
        let engine = MrEngine::new(2);
        let out = engine
            .map_reduce(
                Vec::<i32>::new(),
                3,
                &|_, _, _: &mut Emitter<i32, i32>| Ok(()),
                None,
                &|tid, groups| {
                    assert!(groups.is_empty());
                    Ok(tid)
                },
            )
            .unwrap();
        assert_eq!(out.outputs, vec![0, 1, 2]);
    }

    #[test]
    fn group_sorted_handles_duplicates() {
        let g = group_sorted(vec![(2, 'a'), (1, 'b'), (2, 'c')]);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].0, 1);
        assert_eq!(g[1].1.len(), 2);
    }

    /// The shuffle hands a reducer each key's values in map-task order,
    /// whatever order the tasks finish in. Seven tasks on four workers:
    /// task 0 waits at a barrier with tasks 4, 5 and 6, which only start
    /// on workers that have already delivered one of tasks 1–3 — so task
    /// 0's output reaches the shuffle after theirs.
    #[test]
    fn shuffle_order_does_not_depend_on_task_completion_order() {
        let run = |threads: usize, gate: Option<&std::sync::Barrier>| {
            MrEngine::new(threads)
                .map_reduce(
                    (0..7usize).collect(),
                    2,
                    &|task, _input: usize, e| {
                        if let (Some(gate), 0 | 4..) = (gate, task) {
                            gate.wait();
                        }
                        for j in 0..6usize {
                            e.emit(j % 3, task * 10 + j);
                        }
                        Ok(())
                    },
                    None,
                    &|_, groups: Vec<(usize, Vec<usize>)>| Ok(groups),
                )
                .unwrap()
                .outputs
        };
        let sequential = run(1, None);
        assert_eq!(run(4, Some(&std::sync::Barrier::new(4))), sequential);
        let key0 = sequential.iter().flatten().find(|(k, _)| *k == 0).unwrap();
        assert_eq!(key0.1[..4], [0, 3, 10, 13]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Sum-by-key through the engine equals a sequential fold,
        /// regardless of thread count, reducer count, or combiner use.
        #[test]
        fn sum_by_key_matches_sequential(
            data in prop::collection::vec(
                prop::collection::vec((0u8..16, 1u64..100), 0..20), 0..8),
            reducers in 1usize..5,
            threads in 1usize..5,
            use_combiner in any::<bool>(),
        ) {
            let mut expected: BTreeMap<u8, u64> = BTreeMap::new();
            for chunk in &data {
                for (k, v) in chunk {
                    *expected.entry(*k).or_default() += v;
                }
            }
            let engine = MrEngine::new(threads);
            let combiner: Option<CombineFn<'_, u8, u64>> = if use_combiner {
                Some(&|_, vs| Ok(vec![vs.iter().sum()]))
            } else {
                None
            };
            let out = engine.map_reduce(
                data,
                reducers,
                &|_, chunk: Vec<(u8, u64)>, e| {
                    for (k, v) in chunk {
                        e.emit(k, v);
                    }
                    Ok(())
                },
                combiner,
                &|_, groups| Ok(groups
                    .into_iter()
                    .map(|(k, vs)| (k, vs.iter().sum::<u64>()))
                    .collect::<Vec<_>>()),
            ).unwrap();
            let mut got: BTreeMap<u8, u64> = BTreeMap::new();
            for task in out.outputs {
                for (k, v) in task {
                    prop_assert!(got.insert(k, v).is_none());
                }
            }
            prop_assert_eq!(got, expected);
        }
    }
}
