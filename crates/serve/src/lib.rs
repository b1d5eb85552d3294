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
//!   virtual clock) every simulated twin runs on, with hooks for ground
//!   truth, completion observation, routing and ingress buffering, and the
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
//!   backend-neutral poller;
//! * [`sim_ingress`] — the connection-churn + fan-in twin (ingress-buffer
//!   hooks on the core) behind the `ingress` section of `BENCH_serve.json`;
//! * [`fleet`] + [`sim_fleet`] — the fleet tier (DESIGN.md §16):
//!   SLO-aware feasibility-first routing across heterogeneous device
//!   replicas (each with its own per-device latency table), a
//!   least-loaded baseline to beat, replica drain/failure handling with
//!   zero ticket loss, closed-vocabulary per-replica instruments, and the
//!   fleet twin (router hooks on the core, one pool per replica) behind
//!   the `fleet` section of `BENCH_serve.json`.

pub mod fleet;
pub mod metrics;
pub mod reactor;
pub mod reopt;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod sim;
pub mod sim_fleet;
pub mod sim_ingress;
pub mod sim_reopt;
pub mod slo_monitor;
pub mod sys;
pub mod tcp;

pub use fleet::{replica_rate_per_us, FleetMetrics, ReplicaSnapshot, RouteDecision, Router};
pub use metrics::ServeMetrics;
pub use reactor::Reactor;
pub use reopt::{DriftDetector, DriftReport, ReoptConfig};
pub use request::{RequestId, Response, ShedReason};
pub use scheduler::{Action, BatchPolicy, Scheduler};
pub use server::{BatchRunner, PlanState, RealModelRunner, Server, Ticket};
pub use sim::{poisson_arrivals, run_sim, ShedCounts, SimConfig, SimOutcome};
pub use sim_fleet::{
    run_fleet_sim, FleetOutcome, FleetReplicaConfig, FleetSimConfig, FleetStats, ReplicaFailure,
    ReplicaOutcome,
};
pub use sim_ingress::{run_ingress_sim, IngressOutcome, IngressSimConfig, IngressStats};
pub use sim_reopt::{run_reopt_sim, ReoptOutcome, ReoptSimConfig, ReoptStats};
pub use slo_monitor::{BurnAlert, BurnConfig, BurnMonitor};
pub use tcp::TcpFrontend;
