//! The TAQ reproduction's repository benchmark.
//!
//! The workloads drive the simulator through the public APIs of
//! `taq-workloads`, `taq-sim`, `taq`, `taq-queues`, `taq-tcp`,
//! `taq-metrics` and `taq-telemetry` ([`workload`]). A plain run
//! measures what a user waits for; a traced run wraps each layer's
//! public trait from outside ([`probe`]) and attributes the run's wall
//! time to the layers ([`account`]). The `taq-perfbench` binary is the
//! command line.
//!
//! The absolute figures of `bench_report` and `BENCH_sim.json` are
//! informational and are not this benchmark.
//!
//! # Which end-to-end metric each layer metric should move
//!
//! | per-layer metric | end-to-end metric, workload |
//! |---|---|
//! | `workloads.generate_s`, `workloads.build_s`, `alloc.setup` | `setup_s`, every workload |
//! | `sim.events`, `sim.self_ns_per_event`, `sim.self_frac` | `run_s`, `events_per_s`, mostly `weblog_churn` and `access_tree`; the last two are the engine plus the tracing slowdown the calibration does not remove, so read them beside `trace.residual_frac` |
//! | `alloc.per_event`, `alloc.peak_heap_mb` | `run_s`, every workload |
//! | `taq.*` | `run_s` on `manyflow_fairness` (TAQ half), diluted on the web-log and tree workloads |
//! | `droptail.*` | the control: a TAQ-only change leaves them unchanged |
//! | `tcp.*` | `run_s` on `weblog_churn` (flow churn) and `manyflow_fairness` (timeouts) |
//! | `link.*` | exact work counts; they change only with behaviour |
//! | `metrics.*` | `run_s` on `manyflow_fairness` |
//! | `telemetry.*` | `run_s`, `cpu_s` of `weblog_observed`, measured by the traced `weblog_churn` invocation; nothing on the gated workloads |
//! | `shard.*` | the sharded engine against the serial `run_s` of `access_tree` |
//! | `trace.*` | the quality of the breakdown itself: `trace.residual_frac` is the error bar of every `*.self_frac` |

pub mod account;
pub mod probe;
pub mod sys;
pub mod workload;
