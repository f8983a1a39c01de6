//! The benchmark's names: workloads, end-to-end metrics with the bound
//! by which each may worsen, per-layer metrics. `BENCHMARK.json` at the
//! repository root repeats these; a unit test keeps the two in step.

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// `(name, why it exists)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "agg-warm",
        "Aggregations over a grid that fits the header cache: headers answer the inner region, so planning, sidecars and a small boundary scan do the work.",
    ),
    (
        "scan-heavy",
        "GROUP BY and JOIN read every query-related slice and headers go unused, so storage, decode, kernels and the scan executor dominate.",
    ),
    (
        "wide-cold",
        "A grid larger than the header cache behind two latency-charging shards and the serving frontend, two clients: every cache miss is a modelled round trip.",
    ),
    (
        "ingest-churn",
        "Rows stream in through the WAL while queries read the newest days, with flushes and compaction passes between: read cost, write cost and space together.",
    ),
];

pub const END_TO_END: [MetricSpec; 7] = [
    // Times on the shared two-core reference machine move by 10-15 %
    // from one process to the next whatever the benchmark does, so they
    // get the widest bound there is; counts repeat to a fraction of a
    // percent across seeds and are held tightly.
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_p50_ms", "ms", "lower", 0.25),
    e2e("query_p90_ms", "ms", "lower", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("write_rows_per_s", "rows/s", "higher", 0.25),
    e2e("read_bytes_per_query", "B", "lower", 0.02),
    e2e("index_bytes_per_data_byte", "ratio", "lower", 0.01),
];

pub const PER_LAYER: [MetricSpec; 62] = [
    layer("core.plan.ms_per_query", "ms", "lower"),
    layer("core.plan.self_ms_per_query", "ms", "lower"),
    layer("core.plan.gfus_per_query", "count", "lower"),
    layer("core.plan.inner_record_frac", "ratio", "higher"),
    layer("core.cache.hit_ratio", "ratio", "higher"),
    layer("core.cache.misses_per_query", "count", "lower"),
    layer("core.sidecar.ms_per_query", "ms", "lower"),
    layer("core.sidecar.bytes_per_query", "B", "lower"),
    layer("core.sidecar.cost_ratio", "ratio", "lower"),
    layer("core.sidecar.groups_pruned_per_query", "count", "higher"),
    layer("core.pyramid.kv_keys_ratio", "ratio", "lower"),
    layer("core.pyramid.plan_ms_ratio", "ratio", "lower"),
    layer("core.index.build_s", "s", "lower"),
    layer("core.maintain.ms_per_pass", "ms", "lower"),
    layer("core.maintain.bytes_rewritten_per_pass", "B", "lower"),
    layer("core.maintain.live_files_after", "count", "lower"),
    layer("kvstore.ops_per_query", "count", "lower"),
    layer("kvstore.keys_per_query", "count", "lower"),
    layer("kvstore.bytes_per_query", "B", "lower"),
    layer("kvstore.busy_ms_per_query", "ms", "lower"),
    layer("kvstore.retries", "count", "lower"),
    layer("kvstore.write_bytes_per_row", "B/row", "lower"),
    layer("kvstore.log_bytes_per_live_byte", "ratio", "lower"),
    layer("storage.read_bytes_per_query", "B", "lower"),
    layer("storage.seeks_per_query", "count", "lower"),
    layer("storage.read_ms_per_query", "ms", "lower"),
    layer("storage.write_bytes_per_row", "B/row", "lower"),
    layer("format.decode_ms_per_query", "ms", "lower"),
    layer("format.rows_decoded_per_query", "count", "lower"),
    layer("format.decode_ns_per_row", "ns/row", "lower"),
    layer("format.select_ratio", "ratio", "higher"),
    layer("format.sidecar_bytes_per_data_byte", "ratio", "lower"),
    layer("query.kernel_us_per_query", "us", "lower"),
    layer("query.merge_ms_per_query", "ms", "lower"),
    layer("hive.scan.ms_per_query", "ms", "lower"),
    layer("hive.prefetch_wait_us_per_query", "us", "lower"),
    layer("hive.splits_read_frac", "ratio", "lower"),
    layer("ingest.ack_p50_ms", "ms", "lower"),
    layer("ingest.ack_p90_ms", "ms", "lower"),
    layer("ingest.flush_ms", "ms", "lower"),
    layer("ingest.wal_bytes_per_row", "B/row", "lower"),
    layer("ingest.wal_syncs_per_batch", "count", "lower"),
    layer("ingest.rejections", "count", "lower"),
    layer("ingest.fresh_rows_per_query", "count", "lower"),
    layer("serve.queue_wait_us_per_query", "us", "lower"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.shard_subops_per_query", "count", "lower"),
    layer("serve.overhead_ms_per_query", "ms", "lower"),
    layer("class.agg_point.p50_ms", "ms", "lower"),
    layer("class.agg_5pct.p50_ms", "ms", "lower"),
    layer("class.agg_12pct.p50_ms", "ms", "lower"),
    layer("class.partial.p50_ms", "ms", "lower"),
    layer("class.groupby_5pct.p50_ms", "ms", "lower"),
    layer("class.groupby_12pct.p50_ms", "ms", "lower"),
    layer("class.join_5pct.p50_ms", "ms", "lower"),
    layer("class.churn_recent.p50_ms", "ms", "lower"),
    layer("trace.stage_sum_frac", "ratio", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("prog.plan.meta_ms", "ms", "lower"),
    layer("prog.plan.fetch_ms", "ms", "lower"),
    layer("prog.plan.splits_ms", "ms", "lower"),
    layer("prog.plan.sidecar_ms", "ms", "lower"),
];

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 8;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_reasons_stay_inside_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(benchmark_json().len() < 64 << 10);
    }
}
