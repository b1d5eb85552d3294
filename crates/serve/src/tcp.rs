//! The TCP line protocol and its front-end entry point.
//!
//! Protocol, one JSON object per line in each direction (unchanged since
//! the original thread-per-connection front-end — byte-compatible):
//!
//! ```text
//! → {"id": 7, "input": [0.1, 0.2, …]}            # sample_len floats
//! ← {"id": 7, "ok": true, "argmax": 3, "latency_us": 812.5, "batch": 4, "plan_version": 1}
//! ← {"id": 7, "ok": false, "error": "shed:queue_full"}
//! ```
//!
//! One non-JSON verb: a line consisting of `STATS` returns the live
//! Prometheus-style exposition ([`Server::exposition`]) — multiple lines,
//! terminated by `# EOF` — then the connection resumes the JSON protocol.
//!
//! Transport is the [`crate::reactor`] event loop (DESIGN.md §15): all
//! connections multiplex onto a fixed pool of readiness-driven loop
//! threads instead of a thread per connection, requests pipeline through
//! per-connection sequencers, and responses arrive via completion
//! callbacks. This module keeps the *protocol*: parsing one request line
//! ([`parse_request`]) and rendering one response line ([`ok_line`] /
//! [`error_line`]), plus [`TcpFrontend`], the facade the callers and
//! tests bind to.

use crate::reactor::Reactor;
use crate::request::Response;
use crate::server::Server;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use ucudnn::json::{self, Value};
use ucudnn::IngressOptions;

/// A running TCP front-end bound to a [`Server`]: the reactor, configured
/// by an [`IngressOptions`].
pub struct TcpFrontend {
    inner: Reactor,
}

impl TcpFrontend {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting with the
    /// default [`IngressOptions`].
    ///
    /// # Errors
    /// Socket bind failures.
    pub fn start(server: Arc<Server>, addr: &str) -> io::Result<Self> {
        Self::start_with(server, addr, &IngressOptions::default())
    }

    /// Bind `addr` and start accepting with explicit ingress options.
    ///
    /// # Errors
    /// Socket bind failures, or an unsupported backend request.
    pub fn start_with(server: Arc<Server>, addr: &str, opts: &IngressOptions) -> io::Result<Self> {
        Ok(Self {
            inner: Reactor::start(server, addr, opts)?,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Open connections right now, across all event loops.
    pub fn active_connections(&self) -> usize {
        self.inner.active_connections()
    }

    /// Stop accepting, drain half-written responses and in-flight requests
    /// (bounded), close every connection, and join the event-loop threads
    /// — nothing is leaked. Also runs on drop.
    pub fn stop(self) {
        self.inner.stop();
    }
}

/// One classified request line.
pub(crate) enum Request {
    /// Blank line: consumed, no response.
    Empty,
    /// The `STATS` verb: reply with the live exposition.
    Stats,
    /// A malformed line: the rendered error response (no trailing newline).
    Immediate(String),
    /// A well-formed inference request, ready to submit.
    Submit {
        /// The client's correlation id, echoed on the response.
        id: Option<f64>,
        /// `sample_len` floats.
        input: Vec<f32>,
    },
}

/// Classify one request line (newline already stripped).
pub(crate) fn parse_request(line: &str, sample_len: usize) -> Request {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Request::Empty;
    }
    if trimmed == "STATS" {
        return Request::Stats;
    }
    let Some(req) = Value::parse(line) else {
        return Request::Immediate(error_line(None, "bad_json"));
    };
    let id = req.get("id").and_then(Value::as_f64);
    let Some(input) = req.get("input").and_then(Value::as_arr) else {
        return Request::Immediate(error_line(id, "missing_input"));
    };
    let input: Vec<f32> = input
        .iter()
        .filter_map(Value::as_f64)
        .map(|v| v as f32)
        .collect();
    if input.len() != sample_len {
        return Request::Immediate(error_line(id, "bad_input_len"));
    }
    Request::Submit { id, input }
}

/// Render one success response line (no trailing newline).
pub(crate) fn ok_line(id: Option<f64>, resp: &Response) -> String {
    let argmax = resp
        .output
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    json::obj([
        ("id", id.map_or(Value::Null, json::num)),
        ("ok", Value::Bool(true)),
        ("argmax", json::num(argmax as f64)),
        ("latency_us", json::num(resp.latency_us)),
        ("batch", json::num(resp.batch as f64)),
        ("plan_version", json::num(resp.plan_version as f64)),
    ])
    .to_json()
}

/// Render one error response line (no trailing newline).
pub(crate) fn error_line(id: Option<f64>, msg: &str) -> String {
    json::obj([
        ("id", id.map_or(Value::Null, json::num)),
        ("ok", Value::Bool(false)),
        ("error", Value::Str(msg.to_string())),
    ])
    .to_json()
}
