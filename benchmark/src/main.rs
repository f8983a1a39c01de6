//! The DGFIndex stack's end-to-end benchmark. See `README.md`.
//!
//! With `--workload` it runs that one workload in this process and ends
//! its standard output with one JSON line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Without it, it
//! is the suite: every workload, timed and traced, each in a process of
//! its own, summarised in `results.json`.

mod gen;
mod oracle;
mod spec;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Args, Outcome};

const USAGE: &str = "usage: run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds N] [--smoke] [--repeat] [--out DIR]
  with --workload: run that workload; the last line of output is its JSON result
  without:         run all four workloads, timed then traced, and write results.json
  --repeat         (suite) run the suite twice and compare the two against each bound
  --smoke          about 1/20 of every size: checks that everything runs, measures nothing";

struct Cli {
    workload: Option<String>,
    seed: u64,
    /// Seconds of timed work per run; unless given, `run_seconds` of
    /// `BENCHMARK.json`, or 1 under `--smoke`.
    seconds: u64,
    trace: bool,
    smoke: bool,
    repeat: bool,
    out: PathBuf,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 0,
        trace: false,
        smoke: false,
        repeat: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: {s:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = number(value()?)?,
            "--trace" => cli.trace = number(value()?)? != 0,
            "--out" => cli.out = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            "--repeat" => cli.repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.seconds == 0 {
        cli.seconds = if cli.smoke { 1 } else { spec::RUN_SECONDS };
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(cli)
}

fn specs(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The contract's result line. A per-layer metric whose layer this
/// workload does not run has no value; the line must still name it, so
/// it carries 0 there (the readable lines above it say `absent`).
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = specs(trace)
        .iter()
        .map(|m| {
            let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let args = Args {
        workload: workload.to_owned(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        out: cli.out.clone(),
    };
    let outcome = match workloads::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {workload}: {note}");
    }
    // Every metric of either kind this run measured, then the absent
    // ones of the kind it was asked for.
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let samples = outcome
            .samples
            .get(m.name)
            .map_or(String::new(), |n| format!(" (n={n})"));
        if let Some(v) = outcome.metrics.get(m.name) {
            println!("{workload} {} {v} {}{samples}", m.name, m.unit);
        }
    }
    for m in specs(cli.trace) {
        if !outcome.metrics.contains_key(m.name) {
            println!("{workload} {} absent {}", m.name, m.unit);
        }
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{workload} failed_frac {failed_frac} ratio ({} of {})",
        outcome.failed, outcome.attempted
    );
    // An end-to-end metric is never absent and never 0: a run that
    // cannot say so has no result.
    if !cli.trace {
        for m in &END_TO_END {
            if outcome.metrics.get(m.name).is_none_or(|v| *v <= 0.0) {
                eprintln!("{workload}: end-to-end metric {} was not measured", m.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if outcome.attempted == 0 {
        eprintln!("{workload}: no operation was attempted");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&outcome, cli.trace));
    // A wrong answer is reported in the result line, as the contract
    // asks; the suite turns it into a failing exit code.
    ExitCode::SUCCESS
}

// ---- the suite -------------------------------------------------------------

/// Numbers of one child run, pulled out of its result line.
struct ChildResult {
    failed: u64,
    attempted: u64,
    values: BTreeMap<String, f64>,
}

/// Read the `"name": {"value": v, ...}` pairs back out of a result line
/// this program wrote.
fn parse_result_line(line: &str) -> Option<ChildResult> {
    let number_after = |key: &str| -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    };
    let mut values = BTreeMap::new();
    let metrics = &line[line.find("\"metrics\": {")? + 12..];
    for part in metrics.split("\"}") {
        let Some(name_start) = part.find('"') else {
            continue;
        };
        let rest = &part[name_start + 1..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let Some(v) = rest.find("\"value\": ") else {
            continue;
        };
        let tail = &rest[v + 9..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(value) = tail[..end].trim().parse::<f64>() {
            values.insert(rest[..name_end].to_owned(), value);
        }
    }
    Some(ChildResult {
        failed: number_after("\"failed\": ")? as u64,
        attempted: number_after("\"attempted\": ")? as u64,
        values,
    })
}

fn run_child(cli: &Cli, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args([
        "--seed",
        &cli.seed.to_string(),
        "--seconds",
        &cli.seconds.to_string(),
    ])
    .arg("--out")
    .arg(&cli.out)
    .stdout(Stdio::piped());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let output = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (last, readable) = lines.split_last().ok_or(format!("{workload}: no output"))?;
    for line in readable {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}): exited with {}",
            trace as u8, output.status
        ));
    }
    parse_result_line(last).ok_or(format!("{workload}: unreadable result line"))
}

type SuiteRun = BTreeMap<(String, bool), ChildResult>;

fn run_suite_once(cli: &Cli) -> Result<SuiteRun, String> {
    let mut results = SuiteRun::new();
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            results.insert(
                (workload.to_owned(), trace),
                run_child(cli, workload, trace)?,
            );
        }
    }
    Ok(results)
}

fn results_json(runs: &[SuiteRun], cli: &Cli) -> String {
    let mut out = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \"available_parallelism\": {},\n  \"runs\": [\n",
        cli.seed,
        cli.seconds,
        cli.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for (r, run) in runs.iter().enumerate() {
        out.push_str("    {\n");
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            let section = |trace: bool| -> String {
                let child = &run[&(workload.to_string(), trace)];
                let values: Vec<String> = child
                    .values
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                format!(
                    "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                    child.attempted,
                    child.failed,
                    values.join(", ")
                )
            };
            out.push_str(&format!(
                "      \"{workload}\": {{\"end_to_end\": {}, \"per_layer\": {}}}{}\n",
                section(false),
                section(true),
                if w + 1 < WORKLOADS.len() { "," } else { "" }
            ));
        }
        out.push_str(if r + 1 < runs.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    // The benchmark is a ruler; it claims nothing.
    out.push_str("  ],\n  \"claim\": null\n}\n");
    out
}

/// Per workload and end-to-end metric: both runs' values, how much
/// worse the second is than the first as a share of the first, and
/// whether that stays within the metric's bound.
fn compare(first: &SuiteRun, second: &SuiteRun) {
    println!("# repeat: workload metric first second worse_by bound verdict");
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let key = (workload.to_owned(), false);
            let (Some(a), Some(b)) = (
                first[&key].values.get(m.name),
                second[&key].values.get(m.name),
            ) else {
                continue;
            };
            let worse_by = if m.better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            // Two single runs that differ by more than the bound in
            // either direction cannot tell a regression from noise.
            let verdict = if worse_by.abs() <= m.bound {
                "PASS"
            } else {
                "UNRESOLVED"
            };
            println!(
                "repeat {workload} {} {a} {b} {worse_by:+.4} {} {verdict}",
                m.name, m.bound
            );
        }
    }
}

fn run_suite(cli: &Cli) -> ExitCode {
    let mut runs = Vec::new();
    for _ in 0..if cli.repeat { 2 } else { 1 } {
        match run_suite_once(cli) {
            Ok(r) => runs.push(r),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let [first, second] = &runs[..] {
        compare(first, second);
    }
    let path = cli.out.join("results.json");
    if let Err(e) = std::fs::write(&path, results_json(&runs, cli)) {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# results written to {}", path.display());
    let failed: u64 = runs.iter().flat_map(|r| r.values()).map(|c| c.failed).sum();
    if failed > 0 {
        eprintln!("{failed} operations failed or answered wrongly");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv == ["--print-benchmark-json"] {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match &cli.workload {
        Some(w) => run_one(&cli, w),
        None => run_suite(&cli),
    }
}
