//! Serving configuration, built in code: [`ServeOptions`] for the
//! `Server`, [`IngressOptions`] for the TCP reactor, and the fleet
//! router's vocabulary ([`FleetRouterPolicy`], [`FLEET_REPLICA_CARDS`]).
//!
//! The paper's μ-cuDNN takes its policies "via an environment variable or
//! through a special library function" (§III-D). This reproduction offers
//! only the second route: programs build [`crate::UcudnnOptions`] and the
//! values here field by field (DESIGN.md §7). The module keeps the name of
//! the environment parsers it once held. The process reads two variables,
//! both listed in README: `UCUDNN_EXEC_THREADS` (the execution-worker cap,
//! `ucudnn_conv::parallel`) and `UCUDNN_RESULTS_DIR` (where the bench
//! binaries write their CSVs).

/// Configuration of the serving subsystem (`ucudnn-serve`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Per-request deadline budget in microseconds: a request admitted at
    /// time `a` must complete by `a + slo_us` or be shed.
    pub slo_us: f64,
    /// Admission-queue capacity; submissions beyond it are rejected with
    /// backpressure.
    pub queue_cap: usize,
    /// Worker threads executing coalesced batches.
    pub workers: usize,
    /// Upper bound on the coalesced batch size; also the largest
    /// micro-batch size the latency table is built for.
    pub max_batch: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            slo_us: 50_000.0,
            queue_cap: 1024,
            workers: 2,
            max_batch: 32,
        }
    }
}

/// The readiness backend the ingress reactor multiplexes connections with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressBackend {
    /// Linux `epoll` — O(ready) per tick, the C10k path.
    Epoll,
    /// Portable `poll(2)` — O(registered) per tick, semantically identical.
    Poll,
}

/// Configuration of the TCP ingress reactor (`ucudnn-serve`'s event-loop
/// front-end). `TcpFrontend::start` runs the default; `start_with` takes
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressOptions {
    /// Concurrent-connection cap; accepts beyond it are rejected at the
    /// listener before any protocol state is built.
    pub max_conns: usize,
    /// Event-loop threads. Connections are sharded across loops
    /// round-robin at accept time.
    pub loops: usize,
    /// Readiness backend override; `None` picks epoll where available and
    /// `poll(2)` elsewhere.
    pub backend: Option<IngressBackend>,
}

impl Default for IngressOptions {
    fn default() -> Self {
        Self {
            max_conns: 16_384,
            loops: 2,
            backend: None,
        }
    }
}

/// How the fleet router picks a replica for an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetRouterPolicy {
    /// Feasibility-first: dispatch to the replica whose estimated
    /// completion keeps the request's deadline feasible, preferring the
    /// earliest estimated finish; shed only when no replica is feasible.
    Feasibility,
    /// Join-shortest-queue baseline: dispatch to the replica with the
    /// fewest queued requests, blind to per-device service rates.
    LeastLoaded,
}

impl FleetRouterPolicy {
    /// Stable lowercase spelling, used in logs and bench report lane names.
    pub fn name(self) -> &'static str {
        match self {
            FleetRouterPolicy::Feasibility => "feasibility",
            FleetRouterPolicy::LeastLoaded => "least_loaded",
        }
    }
}

/// Device cards a fleet replica may be instantiated from. The vocabulary
/// is closed on purpose: it doubles as the replica metric-label vocabulary,
/// so an unknown spelling never allocates a label series at runtime.
pub const FLEET_REPLICA_CARDS: [&str; 3] = ["k80", "p100", "v100"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_defaults() {
        let opts = ServeOptions::default();
        assert_eq!(opts.slo_us, 50_000.0);
        assert_eq!(opts.queue_cap, 1024);
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.max_batch, 32);
    }

    #[test]
    fn ingress_defaults_when_unset() {
        let opts = IngressOptions::default();
        assert_eq!(opts.max_conns, 16_384);
        assert_eq!(opts.loops, 2);
        assert_eq!(opts.backend, None);
    }
}
