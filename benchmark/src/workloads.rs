//! The four workloads: set-up, warm-up and oracle check, the timed
//! closed loop, the traced replay, and the metrics each phase yields.
//!
//! Every workload is a closed loop: a client sends its next query only
//! when the previous one has answered, as an analyst or a dashboard
//! does. Client counts never exceed the two cores of the reference
//! machine.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::gen::{Class, QuerySpec, Rng, Shape};
use crate::oracle::Answer;
use crate::stats::{mean, median, percentile, samples_beyond};
use crate::sut::{delta, generate, Counters, Dataset, RunError, Stack, StackConfig, Store, Traced};
use crate::trace::{self, Tracer};

const REGIONS: i64 = 11;
/// Days in the table of the three read workloads.
const DAYS: u64 = 30;
/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed queries of a read workload, however long they take: ten
/// of a hundred lie beyond the 90th percentile.
const MIN_TIMED: usize = 100;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Roughly 1/20 of every size: a functional check, not a measurement.
    pub smoke: bool,
    pub out: PathBuf,
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metrics by name. A metric the run could not measure is absent.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the order statistics.
    pub samples: BTreeMap<String, usize>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.metrics.insert(name.to_owned(), v);
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(format!("FAILED {what}"));
        }
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn get(c: &Counters, name: &str) -> Option<f64> {
    c.get(name).map(|v| *v as f64)
}

fn add_into(total: &mut Counters, part: &Counters) {
    for (k, v) in part {
        *total.entry(k.clone()).or_default() += v;
    }
}

/// A scratch directory under the benchmark's output directory, removed
/// when the run ends however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(out: &Path, tag: &str) -> Result<WorkDir, String> {
        let path = out.join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct SetUp {
    data: Dataset,
    stack: Stack,
    dir: WorkDir,
}

/// Generate, load, build and open [`SETUPS`] times, keeping the last.
/// Each repeat starts from nothing, so each is a full set-up. A traced
/// or smoke run reports no set-up time, so it sets up once.
fn set_up(
    cfg: &StackConfig,
    users: u64,
    days: u64,
    args: &Args,
    out: &mut Outcome,
) -> Result<SetUp, String> {
    let repeats = if args.trace || args.smoke { 1 } else { SETUPS };
    let mut kept = None;
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    for i in 0..repeats {
        drop(kept.take());
        let started = Instant::now();
        let data = generate(users, days, args.seed);
        let dir = WorkDir::new(&args.out, &format!("{}-{i}", args.workload))?;
        let mut stack = Stack::set_up(cfg, &data, &dir.0, None)?;
        if cfg.store == Store::Log {
            stack.open_ingest()?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        build_s.push(stack.build_s);
        kept = Some(SetUp { data, stack, dir });
    }
    out.put("setup_s", median(&setup_s));
    out.put("core.index.build_s", median(&build_s));
    out.samples.insert("setup_s".into(), setup_s.len());
    Ok(kept.expect("at least one set-up"))
}

/// One closed-loop pass over `ops` by `clients` clients. Returns the
/// pass's wall seconds and, per op, its latency and outcome.
#[allow(clippy::type_complexity)]
fn run_pass(
    stack: &Stack,
    ops: &[QuerySpec],
    clients: usize,
) -> (f64, Vec<(f64, Result<Answer, RunError>)>) {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut done: Vec<(usize, f64, Result<Answer, RunError>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter hands out indexes and
                        // publishes nothing else.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= ops.len() {
                            return mine;
                        }
                        let t = Instant::now();
                        let result = stack.run(&ops[i]);
                        mine.push((i, t.elapsed().as_secs_f64() * 1e3, result));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    done.sort_by_key(|(i, _, _)| *i);
    (wall, done.into_iter().map(|(_, ms, r)| (ms, r)).collect())
}

/// What the timed phase measured.
#[derive(Default)]
struct Phase {
    /// `(class, milliseconds)` of every timed query.
    lat: Vec<(Class, f64)>,
    /// Per op of the list, its timed latencies (read workloads).
    per_op: Vec<Vec<f64>>,
    /// Counter deltas summed over the timed query calls.
    qd: Counters,
    /// Wall seconds of the timed phase.
    wall_s: f64,
}

impl Phase {
    fn queries(&self) -> f64 {
        self.lat.len() as f64
    }
}

fn check(
    out: &mut Outcome,
    what: &str,
    q: &QuerySpec,
    got: Result<Answer, RunError>,
    ok: impl Fn(&Answer) -> bool,
) -> Option<Answer> {
    out.attempted += 1;
    match got {
        Ok(a) if ok(&a) => Some(a),
        Ok(_) => {
            out.fail(format!("{what}: wrong answer for {q:?}"));
            None
        }
        Err(RunError::Backpressure) => {
            out.fail(format!("{what}: refused by admission control: {q:?}"));
            None
        }
        Err(RunError::Failed(e)) => {
            out.fail(format!("{what}: {e}: {q:?}"));
            None
        }
    }
}

/// The metrics every workload derives from its timed query calls.
fn query_metrics(out: &mut Outcome, phase: &Phase) {
    let all: Vec<f64> = phase.lat.iter().map(|(_, ms)| *ms).collect();
    let n = phase.queries();
    out.put("query_p50_ms", median(&all));
    out.put("query_p90_ms", percentile(&all, 0.9));
    out.samples.insert("query_p50_ms".into(), all.len());
    out.samples.insert("query_p90_ms".into(), all.len());
    if samples_beyond(all.len(), 0.9) < 10 {
        out.notes.push(format!(
            "only {} samples lie beyond query_p90_ms",
            samples_beyond(all.len(), 0.9)
        ));
    }
    let deciles: Vec<String> = (1..=10)
        .filter_map(|d| percentile(&all, d as f64 / 10.0))
        .map(|ms| format!("{ms:.1}"))
        .collect();
    out.notes.push(format!(
        "latency deciles of the timed queries, ms: {}",
        deciles.join(" ")
    ));
    out.put("queries_per_s", ratio(n, phase.wall_s));
    let qd = &phase.qd;
    let read = get(qd, "hdfs.bytes_read")
        .zip(get(qd, "kv.bytes_read"))
        .map(|(h, k)| h + k);
    out.put("read_bytes_per_query", read.and_then(|b| ratio(b, n)));

    for class in Class::ALL {
        let of_class: Vec<f64> = phase
            .lat
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, ms)| *ms)
            .collect();
        let name = format!("class.{}.p50_ms", class.name());
        out.put(&name, median(&of_class));
        if !of_class.is_empty() {
            out.samples.insert(name, of_class.len());
        }
    }
    let per_query = |name: &str| get(qd, name).and_then(|v| ratio(v, n));
    let (hits, misses) = (get(qd, "cache.header.hits"), get(qd, "cache.header.misses"));
    out.put(
        "core.cache.hit_ratio",
        hits.zip(misses).and_then(|(h, m)| ratio(h, h + m)),
    );
    out.put(
        "core.cache.misses_per_query",
        per_query("cache.header.misses"),
    );
    out.put(
        "core.sidecar.bytes_per_query",
        per_query("scan.sidecar.bytes"),
    );
    out.put(
        "core.sidecar.cost_ratio",
        get(qd, "scan.sidecar.bytes")
            .zip(get(qd, "scan.sidecar.bytes_skipped"))
            .and_then(|(b, s)| ratio(b, s)),
    );
    out.put(
        "core.sidecar.groups_pruned_per_query",
        per_query("scan.sidecar.groups_pruned"),
    );
    out.put("kvstore.retries", get(qd, "kv.retries_absorbed"));
    out.put("storage.read_bytes_per_query", per_query("hdfs.bytes_read"));
    out.put("storage.seeks_per_query", per_query("hdfs.seeks"));
    out.put(
        "format.rows_decoded_per_query",
        per_query("scan.rows_decoded"),
    );
    out.put(
        "format.select_ratio",
        get(qd, "scan.rows_selected")
            .zip(get(qd, "scan.rows_decoded"))
            .and_then(|(s, d)| ratio(s, d)),
    );
    out.put("query.kernel_us_per_query", per_query("scan.kernel_us"));
    out.put(
        "hive.prefetch_wait_us_per_query",
        per_query("scan.prefetch_wait_us"),
    );
    out.put(
        "serve.queue_wait_us_per_query",
        per_query("serve.queue_wait_us"),
    );
    out.put("serve.rejected", get(qd, "serve.rejected"));
    out.put(
        "serve.shard_subops_per_query",
        per_query("serve.shard_subops"),
    );
}

/// Space and write-amplification metrics, read once the data is in
/// place. `rows` is every row written so far, by build or by stream.
fn space_metrics(out: &mut Outcome, stack: &Stack, rows: f64) {
    let (data_bytes, scx_bytes, _) = stack.data_files();
    let kv_bytes = stack
        .kv_log_file_bytes()
        .unwrap_or_else(|| stack.kv_logical_bytes());
    out.put(
        "index_bytes_per_data_byte",
        ratio((kv_bytes + scx_bytes) as f64, stack.base_bytes() as f64),
    );
    out.put(
        "format.sidecar_bytes_per_data_byte",
        ratio(scx_bytes as f64, data_bytes as f64),
    );
    out.put(
        "kvstore.log_bytes_per_live_byte",
        stack
            .kv_log_file_bytes()
            .and_then(|log| ratio(log as f64, stack.kv_logical_bytes() as f64)),
    );
    let life = stack.counters();
    out.put(
        "kvstore.write_bytes_per_row",
        get(&life, "kv.bytes_written").and_then(|b| ratio(b, rows)),
    );
    out.put(
        "storage.write_bytes_per_row",
        get(&life, "hdfs.bytes_written").and_then(|b| ratio(b, rows)),
    );
}

// ---- the three read workloads ------------------------------------------

struct ReadWorkload {
    users: u64,
    user_cells: i64,
    store: Store,
    user_info: bool,
    serve_workers: Option<usize>,
    clients: usize,
    classes: &'static [Class],
    per_class: usize,
    /// Seeded query lists of that shape. With one, the timed passes
    /// repeat the warm-up list, and counts per query repeat exactly from
    /// run to run; with more, the timed passes go through the others.
    lists: usize,
    /// Queries of each class the traced run replays.
    replay_per_class: usize,
}

fn read_workload(name: &str, smoke: bool) -> Option<ReadWorkload> {
    let scale = |n: u64| if smoke { n / 20 } else { n };
    let cells = |n: i64| if smoke { n / 5 } else { n };
    let few = |n: usize| if smoke { n.div_ceil(5) } else { n };
    Some(match name {
        // 50 x 11 x 30 = 16 500 GFUs: the grid fits the 65 536-entry
        // header cache with room to spare.
        "agg-warm" => ReadWorkload {
            users: scale(16_000),
            user_cells: cells(50),
            store: Store::Mem,
            user_info: false,
            serve_workers: None,
            clients: 1,
            classes: &[
                Class::AggPoint,
                Class::Agg5pct,
                Class::Agg12pct,
                Class::Partial,
            ],
            per_class: few(15),
            lists: 1,
            replay_per_class: few(10),
        },
        "scan-heavy" => ReadWorkload {
            users: scale(16_000),
            user_cells: cells(50),
            store: Store::Mem,
            user_info: true,
            serve_workers: None,
            clients: 1,
            classes: &[Class::Groupby5pct, Class::Groupby12pct, Class::Join5pct],
            per_class: few(12),
            lists: 1,
            replay_per_class: few(10),
        },
        // 250 x 11 x 30 = 82 500 GFUs: more than the header cache holds,
        // so it evicts steadily, and every miss is a modelled round trip.
        "wide-cold" => ReadWorkload {
            users: scale(20_000),
            user_cells: cells(250),
            store: Store::ShardedLatency { shards: 2 },
            user_info: false,
            serve_workers: Some(2),
            clients: 2,
            classes: &[Class::Agg12pct],
            // Thirty-four distinct 12 % windows touch more headers than
            // the cache holds (twenty-five do not). The tail of this
            // workload is the queries that miss, so its hundred timed
            // queries are a hundred distinct windows: three fresh lists
            // after the warm-up one.
            per_class: few(34),
            lists: 4,
            replay_per_class: few(8),
        },
        _ => return None,
    })
}

fn run_read(w: &ReadWorkload, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = StackConfig {
        user_cell: w.users as i64 / w.user_cells,
        loaded_days: DAYS,
        store: w.store,
        count_header: false,
        user_info: w.user_info,
        serve_workers: w.serve_workers,
    };
    let SetUp { data, stack, dir } = set_up(&cfg, w.users, DAYS, args, &mut out)?;
    out.put(
        "write_rows_per_s",
        out.metrics
            .get("core.index.build_s")
            .and_then(|s| ratio(stack.rows_built as f64, *s)),
    );
    space_metrics(&mut out, &stack, stack.rows_built as f64);

    let shape = Shape {
        users: w.users as i64,
        regions: REGIONS,
        days: DAYS as i64,
        user_cell: cfg.user_cell,
    };
    // `lists` seeded lists of the same shape, end to end. The warm-up
    // pass runs the first; timed pass `t` runs list `timed_list(t)`.
    let per_list = w.classes.len() * w.per_class;
    let ops: Vec<QuerySpec> = (0..w.lists as u64)
        .flat_map(|k| shape.op_list(args.seed.wrapping_add(k << 32), w.classes, w.per_class))
        .collect();
    let list = |k: usize| k * per_list..(k + 1) * per_list;
    let timed_list = |t: usize| {
        if w.lists == 1 {
            0
        } else {
            1 + t % (w.lists - 1)
        }
    };

    // The first answer to each distinct query is checked against the
    // oracle; every later answer to it must equal the first bit for
    // bit. Both happen after the pass, off the clock.
    let mut first: Vec<Option<Option<Answer>>> = vec![None; ops.len()];
    let mut verify =
        |out: &mut Outcome, what: &str, i: usize, got: Result<Answer, RunError>| match &first[i] {
            None => {
                let want = data.cols.answer(&ops[i], data.cols.rows());
                first[i] = Some(check(out, what, &ops[i], got, |a| a.agrees_with(&want)));
            }
            Some(before) => {
                check(out, what, &ops[i], got, |a| {
                    before.as_ref().is_none_or(|b| a.same_bits(b))
                });
            }
        };

    // Warm-up pass, not timed: fills the caches.
    let (_, warm) = run_pass(&stack, &ops[list(0)], w.clients);
    for (i, (_, got)) in warm.into_iter().enumerate() {
        verify(&mut out, "warm-up", i, got);
    }

    // Timed phase: whole passes until the time is up, so every run
    // measures the same mix.
    let mut phase = Phase {
        per_op: vec![Vec::new(); ops.len()],
        ..Phase::default()
    };
    let mut pass_p50 = Vec::new();
    let seconds = args.seconds as f64;
    // On a machine so slow that a hundred queries take four times the
    // time asked for, stop anyway: the driver does not wait for ever.
    while phase.wall_s < seconds
        || (!args.smoke && phase.lat.len() < MIN_TIMED && phase.wall_s < 4.0 * seconds)
    {
        let range = list(timed_list(pass_p50.len()));
        let before = stack.counters();
        let (wall, results) = run_pass(&stack, &ops[range.clone()], w.clients);
        let ms: Vec<f64> = results.iter().map(|(ms, _)| *ms).collect();
        pass_p50.push(format!("{:.1}", median(&ms).expect("a pass has queries")));
        add_into(&mut phase.qd, &delta(&stack.counters(), &before));
        phase.wall_s += wall;
        for (i, (ms, got)) in range.zip(results) {
            phase.lat.push((ops[i].class, ms));
            phase.per_op[i].push(ms);
            verify(&mut out, "timed", i, got);
        }
    }
    query_metrics(&mut out, &phase);
    // How steady the machine was: one median per pass over the same list.
    out.notes.push(format!(
        "median latency of each timed pass, ms: {}",
        pass_p50.join(" ")
    ));
    out.notes.push(format!(
        "{} users, {} rows, {} GFUs, header cache holds {} entries after the timed phase; {} client(s), {} ops per pass",
        w.users,
        stack.rows_built,
        w.user_cells * REGIONS * DAYS as i64,
        stack.header_cache_len(),
        w.clients,
        per_list,
    ));

    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let traced = stack.traced(&tracer)?;
        let mut replay = Replay::new(w.serve_workers.is_some());
        // The first queries of each class in the first timed list.
        let ops = &ops;
        let picked: Vec<usize> = w
            .classes
            .iter()
            .flat_map(|&c| {
                list(timed_list(0))
                    .filter(move |&i| ops[i].class == c)
                    .take(w.replay_per_class)
            })
            .collect();
        // The replay handle has a header cache of its own: fill it the
        // way the warm-up pass filled the timed handle's, by planning
        // the warm-up list once (sidecars off: they cache nothing).
        for q in &ops[list(0)] {
            traced.plan_default(q, false)?;
        }
        tracer.set_recording(true);
        for &i in &picked {
            let untraced = mean(&phase.per_op[i]).expect("every op was timed");
            replay.one(
                &mut out,
                &stack,
                &traced,
                i,
                &ops[i],
                first[i].as_ref().and_then(Option::as_ref),
                untraced,
            );
        }
        replay.finish(
            &mut out,
            &tracer,
            &args.out.join(format!("{}.trace.json", args.workload)),
        )?;
    }
    drop(stack);
    drop(dir);
    Ok(out)
}

// ---- the traced replay ---------------------------------------------------

/// Sums over the replayed queries; see [`Replay::finish`] for what each
/// becomes.
struct Replay {
    /// Whether the workload serves through the frontend.
    serve: bool,
    n: f64,
    traced_ms: f64,
    untraced_ms: f64,
    facts: Counters,
    stage_ms: BTreeMap<String, (f64, usize)>,
    records_read: f64,
    sidecar_on_ms: f64,
    sidecar_off_ms: f64,
    pyramid_ms: f64,
    pyramid_keys: f64,
    default_keys: f64,
    storage_ms: f64,
    decode_ms: f64,
    decode_rows: f64,
    serve_ms: f64,
    engine_ms: f64,
    kv_registry_bytes: f64,
}

impl Replay {
    fn new(serve: bool) -> Replay {
        Replay {
            serve,
            n: 0.0,
            traced_ms: 0.0,
            untraced_ms: 0.0,
            facts: Counters::new(),
            stage_ms: BTreeMap::new(),
            records_read: 0.0,
            sidecar_on_ms: 0.0,
            sidecar_off_ms: 0.0,
            pyramid_ms: 0.0,
            pyramid_keys: 0.0,
            default_keys: 0.0,
            storage_ms: 0.0,
            decode_ms: 0.0,
            decode_rows: 0.0,
            serve_ms: 0.0,
            engine_ms: 0.0,
            kv_registry_bytes: 0.0,
        }
    }

    /// Replay query `qid` under spans, check it against the engine's
    /// answer, then run the probes and differential re-plans (after the
    /// `query` span has closed, so they are not part of it).
    #[allow(clippy::too_many_arguments)]
    fn one(
        &mut self,
        out: &mut Outcome,
        stack: &Stack,
        traced: &Traced<'_>,
        qid: usize,
        q: &QuerySpec,
        engine_answer: Option<&Answer>,
        untraced_ms: f64,
    ) -> Option<Answer> {
        let before = traced.counters();
        let started = Instant::now();
        let replayed = traced.replay(qid, q);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let during = delta(&traced.counters(), &before);
        out.attempted += 1;
        let (answer, plan, facts) = match replayed {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("replay: {e}: {q:?}"));
                return None;
            }
        };
        // A drift between this re-enactment and the engine shows here.
        if engine_answer.is_some_and(|a| !answer.same_bits(a)) {
            out.fail(format!("replay: differs from the engine's answer: {q:?}"));
        }
        self.n += 1.0;
        self.traced_ms += ms;
        self.untraced_ms += untraced_ms;
        add_into(&mut self.facts, &facts.counts);
        for (stage, ms) in &facts.stage_ms {
            let e = self.stage_ms.entry(stage.clone()).or_default();
            e.0 += ms;
            e.1 += 1;
        }
        self.records_read += get(&during, "hdfs.records_read").unwrap_or(0.0);
        self.kv_registry_bytes += get(&during, "kv.bytes_read").unwrap_or(0.0);

        let mut probe = |what: &str, r: Result<(f64, u64), String>| match r {
            Ok(v) => v,
            Err(e) => {
                out.notes.push(format!("probe {what} failed: {e}"));
                (0.0, 0)
            }
        };
        let (ms, _) = probe("storage", traced.probe_storage(&plan));
        self.storage_ms += ms;
        let (ms, rows) = probe("decode", traced.probe_decode(q, &plan));
        self.decode_ms += ms;
        self.decode_rows += rows as f64;
        let (on_ms, keys) = probe("plan", traced.plan_default(q, true));
        self.sidecar_on_ms += on_ms;
        self.default_keys += keys as f64;
        self.sidecar_off_ms += probe("plan without sidecars", traced.plan_default(q, false)).0;
        let (ms, keys) = probe("pyramid plan", traced.plan_pyramid(q));
        self.pyramid_ms += ms;
        self.pyramid_keys += keys as f64;
        if self.serve {
            // Frontend against bare engine on the same query, in
            // alternating order so neither always finds the warmer cache.
            let timed = |through_frontend: bool| {
                let t = Instant::now();
                let r = if through_frontend {
                    stack.run(q)
                } else {
                    stack.run_engine(q)
                };
                (t.elapsed().as_secs_f64() * 1e3, r.is_ok())
            };
            let first_frontend = qid.is_multiple_of(2);
            let (a, ok_a) = timed(first_frontend);
            let (b, ok_b) = timed(!first_frontend);
            if ok_a && ok_b {
                let (f, e) = if first_frontend { (a, b) } else { (b, a) };
                self.serve_ms += f;
                self.engine_ms += e;
            }
        }
        Some(answer)
    }

    /// Turn the sums and the spans into per-layer metrics and write the
    /// spans to `trace_path`.
    fn finish(&self, out: &mut Outcome, tracer: &Tracer, trace_path: &Path) -> Result<(), String> {
        let spans = tracer.spans();
        let n = self.n;
        let ms = |ns: u64| ns as f64 / 1e6;
        let per_query = |total: f64| ratio(total, n);
        let span_ms = |name: &str| per_query(ms(trace::total_ns(&spans, name)));
        out.put("core.plan.ms_per_query", span_ms("core.plan"));
        out.put(
            "core.plan.self_ms_per_query",
            per_query(ms(trace::total_self_ns(&spans, "core.plan"))),
        );
        out.put("hive.scan.ms_per_query", span_ms("hive.scan"));
        out.put("query.merge_ms_per_query", span_ms("query.merge"));
        let staged = trace::total_ns(&spans, "core.plan")
            + trace::total_ns(&spans, "hive.scan")
            + trace::total_ns(&spans, "query.merge");
        out.put(
            "trace.stage_sum_frac",
            ratio(staged as f64, trace::total_ns(&spans, "query") as f64),
        );
        out.put(
            "trace.overhead_frac",
            ratio(self.traced_ms, self.untraced_ms).map(|r| r - 1.0),
        );
        out.samples.insert("trace.overhead_frac".into(), n as usize);

        // Key-value reads made while a `query` span was open.
        let in_query: Vec<&trace::Span> = spans
            .iter()
            .filter(|s| {
                s.name.starts_with("kvstore.")
                    && s.parent.is_some()
                    && s.counts.get("read") == Some(&1)
            })
            .collect();
        let sum = |key: &str| in_query.iter().map(|s| s.counts[key] as f64).sum::<f64>();
        out.put("kvstore.ops_per_query", per_query(in_query.len() as f64));
        out.put("kvstore.keys_per_query", per_query(sum("keys")));
        out.put("kvstore.bytes_per_query", per_query(sum("bytes")));
        out.put(
            "kvstore.busy_ms_per_query",
            per_query(in_query.iter().map(|s| ms(s.duration_ns())).sum()),
        );
        out.notes.push(format!(
            "cross-check: the decorator saw {} value bytes read inside replayed queries, kv.bytes_read moved by {}",
            sum("bytes"),
            self.kv_registry_bytes
        ));

        let fact = |name: &str| get(&self.facts, name);
        out.put(
            "core.plan.gfus_per_query",
            fact("plan.inner_gfus")
                .zip(fact("plan.boundary_gfus"))
                .and_then(|(i, b)| per_query(i + b)),
        );
        out.put(
            "core.plan.inner_record_frac",
            fact("plan.inner_records").and_then(|i| ratio(i, i + self.records_read)),
        );
        out.put(
            "hive.splits_read_frac",
            fact("plan.splits_read")
                .zip(fact("plan.splits_total"))
                .and_then(|(r, t)| ratio(r, t)),
        );
        out.put(
            "ingest.fresh_rows_per_query",
            fact("plan.fresh_records").and_then(per_query),
        );
        for (stage, (total, count)) in &self.stage_ms {
            // `plan.meta` -> `prog.plan.meta_ms`; a mean over the plans
            // in which the program recorded the stage.
            out.put(&format!("prog.{stage}_ms"), ratio(*total, *count as f64));
        }
        out.put(
            "core.sidecar.ms_per_query",
            per_query(self.sidecar_on_ms - self.sidecar_off_ms),
        );
        out.put(
            "core.pyramid.plan_ms_ratio",
            ratio(self.pyramid_ms, self.sidecar_on_ms),
        );
        out.put(
            "core.pyramid.kv_keys_ratio",
            ratio(self.pyramid_keys, self.default_keys),
        );
        out.put("storage.read_ms_per_query", per_query(self.storage_ms));
        out.put("format.decode_ms_per_query", per_query(self.decode_ms));
        out.put(
            "format.decode_ns_per_row",
            ratio(self.decode_ms * 1e6, self.decode_rows),
        );
        if self.serve {
            out.put(
                "serve.overhead_ms_per_query",
                per_query(self.serve_ms - self.engine_ms),
            );
        }
        if let Some(parent) = trace_path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        std::fs::write(trace_path, trace::to_json(&spans))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        out.notes.push(format!(
            "{} spans of {} replayed queries written to {}",
            spans.len(),
            n,
            trace_path.display()
        ));
        Ok(())
    }
}

// ---- ingest-churn ----------------------------------------------------------

struct Churn {
    users: u64,
    user_cells: i64,
    /// Days bulk-loaded and built before the stream starts.
    seed_days: u64,
    stream_days: u64,
    batch_rows: usize,
    /// One maintenance pass after this many flushes.
    maintain_every: u64,
    delta_file_budget: usize,
    /// Streamed days the traced run replays on a fresh stack.
    replay_days: u64,
}

fn churn(args: &Args) -> Churn {
    let smoke = args.smoke;
    Churn {
        users: if smoke { 1_000 } else { 20_000 },
        user_cells: if smoke { 10 } else { 50 },
        seed_days: 10,
        // The stream is a fixed schedule, so that every run does the
        // same work: two days for each second asked for, which takes
        // about that long on the two-core reference machine.
        stream_days: if smoke { 6 } else { 2 * args.seconds.max(3) },
        batch_rows: if smoke { 250 } else { 2_000 },
        maintain_every: 5,
        delta_file_budget: 4,
        replay_days: if smoke { 2 } else { 5 },
    }
}

/// What the stream loop hands back besides the query phase.
#[derive(Default)]
struct Writes {
    ack_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    maintain_ms: Vec<f64>,
    bytes_rewritten: Vec<f64>,
    data_files_after: Option<u64>,
    /// Seconds inside `ingest`, `flush` and maintenance calls.
    busy_s: f64,
    rows: u64,
    /// `(query, rows arrived when it ran, answer)`.
    issued: Vec<(QuerySpec, usize, Option<Answer>)>,
}

/// What the traced replay of the stream needs.
struct Tracing<'a> {
    handle: &'a Traced<'a>,
    tracer: &'a Tracer,
    replay: &'a mut Replay,
    /// Latency of each churn query in the timed run, by position.
    untraced_ms: &'a [f64],
}

/// Stream `days` through the ingestor in arrival order: after each
/// batch one `churn_recent` query; a flush at the end of every day but
/// the last (whose rows stay in the WAL for the restart check); a
/// maintenance pass after every `maintain_every`-th flush and one at
/// the end of the stream. With `tracing`, every step runs under spans
/// instead of being timed for the end-to-end metrics.
#[allow(clippy::too_many_arguments)]
fn stream(
    c: &Churn,
    shape: &Shape,
    data: &Dataset,
    stack: &Stack,
    days: std::ops::Range<u64>,
    seed: u64,
    out: &mut Outcome,
    mut tracing: Option<Tracing<'_>>,
) -> (Phase, Writes) {
    let mut rng = Rng::new(seed ^ 0xC4_0000_0000_0002);
    let (mut phase, mut writes) = (Phase::default(), Writes::default());
    let users = c.users as usize;
    let started = Instant::now();
    let tracer = tracing.as_ref().map(|t| t.tracer);
    let busy_s = std::cell::Cell::new(0.0);
    // One call into the write path: timed, counted as an operation, and
    // under a span of step `step` when tracing. Returns milliseconds.
    let write = |out: &mut Outcome, span: &str, step: usize, f: &dyn Fn() -> Result<(), String>| {
        let id = tracer.map(|t| {
            t.set_query(step);
            t.open(span)
        });
        let t = Instant::now();
        let r = f();
        let s = t.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tracer, id) {
            t.close(id, &[]);
            t.adopt_orphans(step);
        }
        busy_s.set(busy_s.get() + s);
        out.attempted += 1;
        if let Err(e) = r {
            out.fail(format!("{span} at step {step}: {e}"));
        }
        s * 1e3
    };
    let maintain = |out: &mut Outcome, writes: &mut Writes| {
        let before = stack.counters();
        let ms = write(out, "core.maintain", writes.issued.len(), &|| {
            stack.maintain(c.delta_file_budget).map(|_| ())
        });
        writes.maintain_ms.push(ms);
        let moved = delta(&stack.counters(), &before);
        writes
            .bytes_rewritten
            .push(get(&moved, "hdfs.bytes_written").unwrap_or(0.0));
        writes.data_files_after = Some(stack.data_files().2);
    };
    for day in days.clone() {
        let first_row = day as usize * users;
        for start in (0..users).step_by(c.batch_rows) {
            let range = first_row + start..first_row + (start + c.batch_rows).min(users);
            let arrived = range.end;
            writes.rows += range.len() as u64;
            let step = writes.issued.len();
            let ms = write(out, "ingest.ack", step, &|| {
                stack
                    .ingest(data, range.clone())
                    .map_err(|e| format!("{e:?}"))
            });
            writes.ack_ms.push(ms);

            let q = shape.churn_query(&mut rng, day as i64);
            let answer = match &mut tracing {
                Some(t) => {
                    // The re-enactment first, so that it meets the cache
                    // state the timed run's query met; then the engine,
                    // whose answer it must equal bit for bit.
                    let base = t.untraced_ms.get(step).copied().unwrap_or(0.0);
                    let replayed = t.replay.one(out, stack, t.handle, step, &q, None, base);
                    check(out, "replay", &q, stack.run(&q), |a| {
                        replayed.as_ref().is_none_or(|r| r.same_bits(a))
                    })
                }
                None => {
                    let before = stack.counters();
                    let t = Instant::now();
                    let got = stack.run(&q);
                    phase.lat.push((q.class, t.elapsed().as_secs_f64() * 1e3));
                    add_into(&mut phase.qd, &delta(&stack.counters(), &before));
                    check(out, "churn", &q, got, |_| true)
                }
            };
            writes.issued.push((q, arrived, answer));
        }
        if day + 1 == days.end {
            break;
        }
        let ms = write(out, "ingest.flush", writes.issued.len(), &|| {
            stack.flush().map(|_| ())
        });
        writes.flush_ms.push(ms);
        if (writes.flush_ms.len() as u64).is_multiple_of(c.maintain_every) {
            maintain(out, &mut writes);
        }
    }
    maintain(out, &mut writes);
    phase.wall_s = started.elapsed().as_secs_f64();
    writes.busy_s = busy_s.get();

    // Off the clock: every answer against the oracle over exactly the
    // rows that had arrived when the query ran.
    for (q, arrived, answer) in &writes.issued {
        if let Some(a) = answer {
            if !a.agrees_with(&data.cols.answer(q, *arrived)) {
                out.fail(format!(
                    "churn: wrong answer with {arrived} rows arrived: {q:?}"
                ));
            }
        }
    }
    (phase, writes)
}

fn run_churn(args: &Args) -> Result<Outcome, String> {
    let c = churn(args);
    let mut out = Outcome::default();
    let cfg = StackConfig {
        user_cell: c.users as i64 / c.user_cells,
        loaded_days: c.seed_days,
        store: Store::Log,
        // The churn query counts rows as well as summing them, and
        // headers only answer aggregates they pre-computed.
        count_header: true,
        user_info: false,
        serve_workers: None,
    };
    let days = c.seed_days + c.stream_days;
    let SetUp { data, stack, dir } = set_up(&cfg, c.users, days, args, &mut out)?;
    let shape = Shape {
        users: c.users as i64,
        regions: REGIONS,
        days: days as i64,
        user_cell: cfg.user_cell,
    };

    // Warm-up, not timed: a few churn queries over the seeded days.
    let mut rng = Rng::new(args.seed ^ 0xC4_0000_0000_0003);
    let seeded = (c.seed_days * c.users) as usize;
    for _ in 0..10 {
        let q = shape.churn_query(&mut rng, c.seed_days as i64 - 1);
        let want = data.cols.answer(&q, seeded);
        check(&mut out, "warm-up", &q, stack.run(&q), |a| {
            a.agrees_with(&want)
        });
    }

    let before = stack.counters();
    let (phase, writes) = stream(
        &c,
        &shape,
        &data,
        &stack,
        c.seed_days..days,
        args.seed,
        &mut out,
        None,
    );
    let life = delta(&stack.counters(), &before);
    query_metrics(&mut out, &phase);
    out.put("write_rows_per_s", ratio(writes.rows as f64, writes.busy_s));
    out.samples
        .insert("write_rows_per_s".into(), writes.ack_ms.len());
    space_metrics(&mut out, &stack, (stack.rows_built + writes.rows) as f64);
    out.put("ingest.ack_p50_ms", median(&writes.ack_ms));
    out.put("ingest.ack_p90_ms", percentile(&writes.ack_ms, 0.9));
    out.samples
        .insert("ingest.ack_p90_ms".into(), writes.ack_ms.len());
    out.put("ingest.flush_ms", median(&writes.flush_ms));
    out.samples
        .insert("ingest.flush_ms".into(), writes.flush_ms.len());
    out.put("core.maintain.ms_per_pass", mean(&writes.maintain_ms));
    out.samples
        .insert("core.maintain.ms_per_pass".into(), writes.maintain_ms.len());
    out.put(
        "core.maintain.bytes_rewritten_per_pass",
        mean(&writes.bytes_rewritten),
    );
    out.put(
        "core.maintain.live_files_after",
        writes.data_files_after.map(|n| n as f64),
    );
    let rows = writes.rows as f64;
    out.put(
        "ingest.wal_bytes_per_row",
        get(&life, "ingest.wal_bytes").and_then(|b| ratio(b, rows)),
    );
    out.put(
        "ingest.wal_syncs_per_batch",
        get(&life, "ingest.wal_syncs").and_then(|s| ratio(s, writes.ack_ms.len() as f64)),
    );
    out.put("ingest.rejections", get(&life, "ingest.rejections"));
    out.notes.push(format!(
        "{} users; {} rows built, {} streamed in {} batches; {} flushes, {} maintenance passes (budget {} files); 1 client",
        c.users,
        stack.rows_built,
        writes.rows,
        writes.ack_ms.len(),
        writes.flush_ms.len(),
        writes.maintain_ms.len(),
        c.delta_file_budget,
    ));
    let untraced: Vec<f64> = phase.lat.iter().map(|(_, ms)| *ms).collect();

    // Restart check: drop every handle without closing the ingestor (the
    // last day is only in the WAL), reopen from disk, and compare the
    // whole table and the latest queries with the oracle over all rows.
    drop(stack);
    let reopened = Stack::reopen(&cfg, &data, &dir.0)?;
    let everything = QuerySpec {
        class: Class::ChurnRecent,
        kind: crate::gen::Kind::SumCount,
        users: None,
        regions: (0, REGIONS),
        days: (0, days as i64),
    };
    let latest = writes
        .issued
        .iter()
        .rev()
        .take(10)
        .map(|(q, _, _)| q.clone());
    for q in std::iter::once(everything).chain(latest) {
        let want = data.cols.answer(&q, data.cols.rows());
        check(&mut out, "after restart", &q, reopened.run(&q), |a| {
            a.agrees_with(&want)
        });
    }
    drop(reopened);
    drop(dir);

    if args.trace {
        // A fresh stack over the timing decorator replays the first
        // streamed days under spans.
        let tracer = Arc::new(Tracer::new());
        let dir = WorkDir::new(&args.out, &format!("{}-traced", args.workload))?;
        let mut stack = Stack::set_up(&cfg, &data, &dir.0, Some(Arc::clone(&tracer)))?;
        stack.open_ingest()?;
        let traced = stack.traced(&tracer)?;
        let mut replay = Replay::new(false);
        tracer.set_recording(true);
        stream(
            &c,
            &shape,
            &data,
            &stack,
            c.seed_days..c.seed_days + c.replay_days,
            args.seed,
            &mut out,
            Some(Tracing {
                handle: &traced,
                tracer: &tracer,
                replay: &mut replay,
                untraced_ms: &untraced,
            }),
        );
        replay.finish(
            &mut out,
            &tracer,
            &args.out.join(format!("{}.trace.json", args.workload)),
        )?;
        drop(traced);
        drop(stack);
        drop(dir);
    }
    Ok(out)
}

/// Run one workload in this process.
pub fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    match read_workload(&args.workload, args.smoke) {
        Some(w) => run_read(&w, args),
        None if args.workload == "ingest-churn" => run_churn(args),
        None => Err(format!("unknown workload {:?}", args.workload)),
    }
}
