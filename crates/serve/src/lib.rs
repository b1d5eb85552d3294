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
//!   cache and the fault injector;
//! * [`sim`] — the deterministic discrete-event simulator (seeded LCG
//!   arrivals, virtual clock, one pool of workers) behind the reproducible
//!   SLO/throughput claims in `BENCH_serve.json`;
//! * [`metrics`] — queue depth, batch occupancy, shed/degradation counters,
//!   latency percentiles — typed instruments in a `ucudnn::telemetry`
//!   registry, exported as JSON and as a Prometheus-style exposition;
//! * [`tcp`] + [`reactor`] — the newline-delimited-JSON TCP front-end
//!   (with a `STATS` verb serving the live exposition), carried by a
//!   readiness-driven epoll/poll event-loop reactor (DESIGN.md §15):
//!   C10k-scale connection multiplexing on a fixed thread pool, explicit
//!   admission/write backpressure, and connection telemetry;
//! * [`sys`] — the epoll and `poll(2)` readiness backends, declared as C
//!   symbols from the platform's C library, behind a backend-neutral
//!   poller.
//!
//! The server plans once: it measures the runner's latency table at start
//! and schedules from it until drain, as μ-cuDNN plans each kernel once and
//! then reuses the measurements.

pub mod metrics;
pub mod reactor;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod sim;
pub mod sys;
pub mod tcp;

pub use metrics::ServeMetrics;
pub use reactor::Reactor;
pub use request::{RequestId, Response, ShedReason};
pub use scheduler::{Action, BatchPolicy, Scheduler};
pub use server::{BatchRunner, RealModelRunner, Server, Ticket};
pub use sim::{poisson_arrivals, run_sim, ShedCounts, SimConfig, SimOutcome};
pub use tcp::TcpFrontend;
