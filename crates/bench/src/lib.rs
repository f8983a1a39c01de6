//! # dgf-bench
//!
//! The paper harness: it regenerates **every table and figure** of the
//! paper's evaluation (§5) and nothing else. What the system *costs* is
//! measured by the end-to-end benchmark under `benchmark/`; what it
//! *guarantees* (bit-identity, read reductions, bytes ratios) is asserted
//! by the integration suites under `tests/`.
//!
//! | Experiment | Function |
//! |---|---|
//! | Figure 3 (write throughput) | [`experiments::fig3_write_throughput`] |
//! | Table 2 (index size/build) | [`experiments::table2_index_size`] |
//! | Table 3 + Figures 8–10 (aggregation) | [`experiments::agg_experiment`] |
//! | Table 4 + Figures 11–13 (GROUP BY) | [`experiments::groupby_experiment`] |
//! | Figures 14–16 (JOIN) | [`experiments::join_experiment`] |
//! | Figure 17 (partial query) | [`experiments::partial_experiment`] |
//! | Table 5 (TPC-H build) | [`experiments::table5_tpch_index`] |
//! | Table 6 + Figure 18 (TPC-H Q6) | [`experiments::tpch_q6_experiment`] |
//! | Ablation + §2.2 discussion | [`experiments::ablation_dgf_features`], [`experiments::partition_pressure_experiment`] |
//!
//! Run `cargo run --release -p dgf-bench --bin repro -- --scale medium`
//! to print them all, or `--out results.md` to also write Markdown.
//!
//! | Module | Holds |
//! |---|---|
//! | [`experiments`] | one function per table / figure above |
//! | [`meter_lab`] | the meter-data world: base tables, DGF / Compact / HadoopDB engines |
//! | [`tpch_lab`] | the TPC-H `lineitem` world |
//! | [`scale`] | `small` / `medium` / `large` dataset presets |
//! | [`report`] | plain-text / Markdown table rendering |

#![warn(missing_docs)]

pub mod experiments;
pub mod meter_lab;
pub mod report;
pub mod scale;
pub mod tpch_lab;

pub use meter_lab::{IntervalSize, MeterLab};
pub use report::{fmt_bytes, fmt_count, fmt_secs, ReportTable};
pub use scale::BenchScale;
pub use tpch_lab::TpchLab;
