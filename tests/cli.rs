//! End-to-end tests of the `dgf` command-line warehouse: every command
//! runs as a separate process, so these tests also cover cold-restart
//! recovery of the catalog, the namespace, and the index's KV log.

use std::path::Path;
use std::process::{Command, Output};

use dgf_common::TempDir;

fn dgf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dgf"))
        .args(args)
        .output()
        .expect("spawn dgf")
}

fn dgf_ok(args: &[&str]) -> String {
    let out = dgf(args);
    assert!(
        out.status.success(),
        "dgf {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn write_rows_file(dir: &Path, name: &str, lines: &[&str]) -> String {
    let p = dir.join(name);
    std::fs::write(&p, lines.join("\n")).unwrap();
    p.to_string_lossy().into_owned()
}

#[test]
fn full_cli_lifecycle() {
    let tmp = TempDir::new("cli").unwrap();
    let wh = tmp.path().join("wh");
    let wh = wh.to_str().unwrap();

    // init + create-table + load from a file.
    dgf_ok(&["init", wh]);
    dgf_ok(&[
        "create-table",
        wh,
        "readings",
        "--schema",
        "user_id:int,region_id:int,ts:date,power:float",
    ]);
    let data = write_rows_file(
        tmp.path(),
        "rows.txt",
        &[
            "1|0|2013-01-01|10.5",
            "2|1|2013-01-01|20.0",
            "3|0|2013-01-02|30.25",
            "4|1|2013-01-02|40.0",
        ],
    );
    let out = dgf_ok(&["load", wh, "readings", &data]);
    assert!(out.contains("loaded 4 rows"), "{out}");

    // tables lists it (fresh process — catalog restored).
    let out = dgf_ok(&["tables", wh]);
    assert!(out.contains("readings"), "{out}");

    // Build an index, again in a fresh process.
    let out = dgf_ok(&[
        "index",
        wh,
        "dgf_readings",
        "--table",
        "readings",
        "--dims",
        "user_id:0:2,ts:2013-01-01:1",
        "--precompute",
        "sum(power), count(*)",
    ]);
    assert!(out.contains("built index"), "{out}");

    // Query through the index and through a scan; both must agree.
    let sql = "SELECT sum(power), count(*) WHERE ts = '2013-01-01'";
    let indexed = dgf_ok(&["query", wh, "readings", sql, "--index", "dgf_readings"]);
    let scanned = dgf_ok(&["query", wh, "readings", sql]);
    assert_eq!(indexed.trim(), "30.5 | 2");
    assert_eq!(scanned.trim(), indexed.trim());

    // Append through the index (extends the base table too).
    let more = write_rows_file(
        tmp.path(),
        "more.txt",
        &["5|0|2013-01-03|5.0", "6|1|2013-01-03|6.0"],
    );
    let out = dgf_ok(&["append", wh, "dgf_readings", &more]);
    assert!(out.contains("appended 2 rows"), "{out}");
    let total = dgf_ok(&[
        "query",
        wh,
        "readings",
        "SELECT count(*)",
        "--index",
        "dgf_readings",
    ]);
    assert_eq!(total.trim(), "6");

    // GROUP BY through the index.
    let grouped = dgf_ok(&[
        "query",
        wh,
        "readings",
        "SELECT ts, sum(power) WHERE user_id >= 1 AND user_id <= 6 GROUP BY ts",
        "--index",
        "dgf_readings",
    ]);
    let lines: Vec<&str> = grouped.trim().lines().collect();
    assert_eq!(lines.len(), 3, "{grouped}");
    assert!(lines[0].starts_with("2013-01-01"), "{grouped}");

    // `--explain`: one-day `ts` cells let the headers answer the inner
    // user cells per day; two-user `user_id` cells answer no group.
    let explain = |sql: &str| {
        dgf_ok(&[
            "query",
            wh,
            "readings",
            sql,
            "--index",
            "dgf_readings",
            "--explain",
        ])
    };
    let by_day = explain("SELECT ts, sum(power) WHERE user_id >= 1 AND user_id <= 6 GROUP BY ts");
    let plan = by_day.lines().next().unwrap_or_default();
    assert!(
        plan.starts_with("plan: ") && !plan.starts_with("plan: 0 inner headers"),
        "{by_day}"
    );
    assert!(
        by_day.contains("plan: 3 groups answered from headers"),
        "{by_day}"
    );
    assert!(by_day.lines().skip(2).eq(grouped.lines()), "{by_day}");
    let by_user =
        explain("SELECT user_id, sum(power) WHERE user_id >= 1 AND user_id <= 6 GROUP BY user_id");
    assert!(by_user.starts_with("plan: 0 inner headers"), "{by_user}");
    assert!(
        by_user.contains("plan: 0 groups answered from headers"),
        "{by_user}"
    );

    // The advisor runs on warehouse data.
    let out = dgf_ok(&[
        "advise",
        wh,
        "readings",
        "--dims",
        "user_id,ts",
        "--history",
        "user_id >= 1 AND user_id < 3; ts = '2013-01-02'",
    ]);
    assert!(out.contains("recommended policy"), "{out}");
}

/// `dgf serve` mirrors the index into a sharded router and answers from
/// concurrent clients: the rows it prints are the ones `dgf query
/// --index` prints, and no served query fails.
#[test]
fn serve_prints_the_rows_query_prints() {
    let tmp = TempDir::new("cli-serve").unwrap();
    let wh = tmp.path().join("wh");
    let wh = wh.to_str().unwrap();
    dgf_ok(&["init", wh]);
    dgf_ok(&[
        "create-table",
        wh,
        "readings",
        "--schema",
        "user_id:int,region_id:int,ts:date,power:float",
    ]);
    let lines: Vec<String> = (0..48)
        .map(|i| format!("{}|{}|2013-01-0{}|{}.25", i % 12, i % 3, 1 + i % 4, i))
        .collect();
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
    let data = write_rows_file(tmp.path(), "rows.txt", &lines);
    dgf_ok(&["load", wh, "readings", &data]);
    dgf_ok(&[
        "index",
        wh,
        "dgf_readings",
        "--table",
        "readings",
        "--dims",
        "user_id:0:2,ts:2013-01-01:1",
        "--precompute",
        "sum(power), count(*)",
    ]);
    for sql in [
        "SELECT ts, sum(power), count(*) WHERE user_id >= 1 AND user_id < 11 GROUP BY ts",
        "SELECT sum(power), count(*) WHERE user_id >= 3 AND ts >= '2013-01-02'",
    ] {
        let queried = dgf_ok(&["query", wh, "readings", sql, "--index", "dgf_readings"]);
        let args = [
            "serve", wh, "dgf_readings", sql, "--shards", "3", "--clients", "2", "--queries", "4",
        ];
        let out = dgf(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "dgf serve failed: {stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), queried, "{sql}");
        assert!(!queried.trim().is_empty(), "{sql}: no rows");
        assert!(stderr.contains("served 4 queries over 3 shards"), "{stderr}");
        assert!(stderr.contains("| failed 0 |"), "{stderr}");
    }
}

#[test]
fn cli_errors_are_clean() {
    let tmp = TempDir::new("cli-err").unwrap();
    let wh = tmp.path().join("wh");
    let wh_s = wh.to_str().unwrap();

    // Unknown command.
    let out = dgf(&["frobnicate"]);
    assert!(!out.status.success());

    // Query before init.
    let out = dgf(&["query", wh_s, "t", "SELECT count(*)"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("init"));

    dgf_ok(&["init", wh_s]);
    // Bad schema.
    let out = dgf(&["create-table", wh_s, "t", "--schema", "a:blob"]);
    assert!(!out.status.success());
    // Unknown table.
    let out = dgf(&["query", wh_s, "nope", "SELECT count(*)"]);
    assert!(!out.status.success());
    // Bad SQL.
    dgf_ok(&["create-table", wh_s, "t", "--schema", "a:int"]);
    let out = dgf(&["query", wh_s, "t", "SELEKT count(*)"]);
    assert!(!out.status.success());
    // Bad dims spec.
    let out = dgf(&["index", wh_s, "i", "--table", "t", "--dims", "a:zero:1"]);
    assert!(!out.status.success());
    // String dimension rejected.
    dgf_ok(&["create-table", wh_s, "s", "--schema", "name:string"]);
    let out = dgf(&["index", wh_s, "i2", "--table", "s", "--dims", "name:0:1"]);
    assert!(!out.status.success());
}

/// Asking for help is not an error: `--help`, `-h` and `help` print the
/// usage on stdout and exit 0. A bare `dgf` still prints it on stderr
/// and exits 2, and an unknown command still exits 1.
#[test]
fn help_prints_the_usage_and_succeeds() {
    for ask in ["--help", "-h", "help"] {
        let out = dgf(&[ask]);
        assert_eq!(out.status.code(), Some(0), "dgf {ask}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:") && stdout.contains("dgf query"), "dgf {ask}: {stdout}");
        assert!(out.stderr.is_empty(), "dgf {ask}: {}", String::from_utf8_lossy(&out.stderr));
    }
    let bare = dgf(&[]);
    assert_eq!(bare.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bare.stderr).starts_with("usage:"));
    assert!(bare.stdout.is_empty());
    assert_eq!(dgf(&["frobnicate"]).status.code(), Some(1));
}

/// `dgf maintain --adapt` asks the advisor, and the advisor needs a
/// history: a freshly opened warehouse has none, so the grid stays
/// whatever the flags; given one, the pass moves to the advisor's optimum, where a second identical
/// invocation stays.
#[test]
fn maintain_adapts_on_a_history_not_blind() {
    use dgfindex::core::gfu::META_VIEW_KEY;
    use dgfindex::core::ReadView;
    use dgfindex::kvstore::{KvStore, LogKvStore};

    let tmp = TempDir::new("cli-adapt").unwrap();
    let wh = tmp.path().join("wh");
    let policy_bytes = || {
        let log = LogKvStore::open(wh.join(".dgf-kv").join("dgf_meter.log")).unwrap();
        ReadView::decode(&log.get(META_VIEW_KEY).unwrap().expect("m:view")).unwrap().policy
    };
    let wh = wh.to_str().unwrap();
    dgf_ok(&["init", wh]);
    dgf_ok(&["gen-meter", wh, "meterdata", "--users", "200", "--days", "16"]);
    dgf_ok(&[
        "index",
        wh,
        "dgf_meter",
        "--table",
        "meterdata",
        "--dims",
        "user_id:0:50,ts:2012-12-01:4",
        "--precompute",
        "sum(power_consumed), count(*)",
    ]);
    let built = policy_bytes();

    let out = dgf_ok(&["maintain", wh, "dgf_meter", "--adapt"]);
    assert!(out.contains("grid unchanged (no query history)"), "{out}");
    assert_eq!(policy_bytes(), built, "a cold pass moved the grid");

    let history: Vec<String> = (0..128)
        .map(|i| format!("user_id >= {0} AND user_id < {1}", i, i + 6))
        .collect();
    let history = history.join("; ");
    let adapt = ["maintain", wh, "dgf_meter", "--adapt", "--history", &history];
    let out = dgf_ok(&adapt);
    assert!(out.contains("grid adapted: user_id Int { min: 0, interval: 50 } → "), "{out}");
    let moved = policy_bytes();
    assert_ne!(moved, built);
    let sql = "SELECT count(*) WHERE user_id >= 3 AND user_id < 77";
    let indexed = dgf_ok(&["query", wh, "meterdata", sql, "--index", "dgf_meter"]);
    assert_eq!(indexed.trim(), (74 * 16).to_string());

    let out = dgf_ok(&adapt);
    assert!(out.contains("grid unchanged\n"), "{out}");
    assert_eq!(policy_bytes(), moved);

    let usage = dgf(&[]);
    let usage = String::from_utf8_lossy(&usage.stderr);
    let line = usage.lines().find(|l| l.contains("dgf maintain")).expect("maintain in USAGE");
    assert_eq!(
        line.trim(),
        "dgf maintain <dir> <index> [--budget N] [--adapt] [--history \"pred; pred; ...\"]"
    );
}
