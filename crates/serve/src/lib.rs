//! ucudnn-serve: an in-process inference server with SLO-aware dynamic
//! micro-batching (DESIGN.md §12).
//!
//! Training amortizes μ-cuDNN's micro-batch economics over a fixed batch;
//! serving has to *discover* its batch online. This crate closes the loop:
//!
//! * [`scheduler`] — the fire/wait/shed decision on top of
//!   [`ucudnn::plan_batch`], the latency-aware repurposing of the WR dynamic
//!   program (deadline budget instead of a workspace limit, throughput
//!   objective instead of time);
//! * [`server`] — bounded queue, worker pool, per-request tickets, graceful
//!   drain; execution goes through [`ucudnn_framework::RealExecutor`] over a
//!   [`ucudnn::UcudnnHandle`], hitting the batch-normalized execution-plan
//!   cache and the fault-injection/retry machinery;
//! * [`sim`] — the deterministic discrete-event core (seeded LCG arrivals,
//!   virtual clock, one pool of workers) both simulated twins run on, with
//!   hooks for ground truth, tick work and completion observation, and the
//!   plain twin behind the reproducible SLO/throughput claims in
//!   `BENCH_serve.json`;
//! * [`reopt`] + [`sim_reopt`] — online re-optimization (DESIGN.md §13):
//!   windowed-percentile drift detection against the plan's latency table,
//!   background re-benchmarking, and atomic epoch-pointer plan hot-swaps,
//!   with the drift-and-recover twin as hooks on the core;
//! * [`metrics`] — queue depth, batch occupancy, shed/degradation counters,
//!   latency percentiles — typed instruments in a `ucudnn::telemetry`
//!   registry, exported as JSON and as a Prometheus-style exposition;
//! * [`slo_monitor`] — deterministic multi-window (fast/slow) SLO
//!   error-budget burn-rate alerting over the shed/violation outcomes;
//! * [`tcp`] + [`reactor`] — the newline-delimited-JSON TCP front-end
//!   (with a `STATS` verb serving the live exposition), carried by a
//!   readiness-driven epoll/poll event-loop reactor (DESIGN.md §15):
//!   C10k-scale connection multiplexing on a fixed thread pool, explicit
//!   admission/write backpressure, and connection telemetry;
//! * [`sys`] — libc-free epoll/ppoll syscall shims (the sync-shim
//!   discipline applied to readiness multiplexing) behind a
//!   backend-neutral poller.

pub mod metrics;
pub mod reactor;
pub mod reopt;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod sim;
pub mod sim_reopt;
pub mod slo_monitor;
pub mod sys;
pub mod tcp;

pub use metrics::ServeMetrics;
pub use reactor::Reactor;
pub use reopt::{DriftDetector, DriftReport, ReoptConfig};
pub use request::{RequestId, Response, ShedReason};
pub use scheduler::{Action, BatchPolicy, Scheduler};
pub use server::{BatchRunner, PlanState, RealModelRunner, Server, Ticket};
pub use sim::{poisson_arrivals, run_sim, ShedCounts, SimConfig, SimOutcome};
pub use sim_reopt::{run_reopt_sim, ReoptOutcome, ReoptSimConfig, ReoptStats};
pub use slo_monitor::{BurnAlert, BurnConfig, BurnMonitor};
pub use tcp::TcpFrontend;
