//! Per-stream and per-tenant server metrics through the `lzfpga-telemetry`
//! registry, plus connection → request → job span tracing.
//!
//! Hot-path handles (requests, bytes, latency) are registered once and
//! recorded lock-free; per-reject-code and per-tenant series register
//! lazily on first use. Tenant names come off the wire, so they are
//! sanitized and length-capped before becoming metric names — a hostile
//! tenant string can cost at most one bounded, printable series, never an
//! unbounded cardinality blow-up (the admission session cap bounds how
//! many distinct tenants can be live at once).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lzfpga_telemetry::{
    frame_span, span_args, stage_span, Counter, Gauge, Histo, MetricsRegistry, SpanTimer,
    TraceEvent, ROOT_SPAN,
};

use crate::proto::RejectCode;

/// Longest sanitized tenant fragment embedded in a metric name.
const TENANT_NAME_CAP: usize = 24;

/// The server's metric handles over one shared [`MetricsRegistry`].
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    /// Connections that completed the handshake.
    pub sessions_total: Counter,
    /// Requests admitted (any kind).
    pub requests_total: Counter,
    /// Requests that finished with all result bytes sent.
    pub requests_done: Counter,
    /// Requests that ended in a typed error (any code).
    pub requests_failed: Counter,
    /// Request payload bytes received.
    pub bytes_in: Counter,
    /// Result bytes sent as [`crate::proto::Response::Data`].
    pub bytes_out: Counter,
    /// Frames processed across all jobs.
    pub frames_total: Counter,
    /// Worker panics contained by the job unwind boundary.
    pub panics_contained: Counter,
    /// Ladder retries absorbed inside jobs.
    pub retries: Counter,
    /// Hostile/unparseable wire messages.
    pub protocol_errors: Counter,
    /// End-to-end request latency (admission to last byte queued), µs.
    pub request_us: Histo,
    /// Live sessions gauge.
    pub active_sessions: Gauge,
    /// Live in-flight requests gauge.
    pub active_streams: Gauge,
    /// Live admitted bytes gauge.
    pub active_bytes: Gauge,
    /// Span-trace events (connection → request → job), when enabled.
    trace: Option<Mutex<Vec<TraceEvent>>>,
    epoch: Instant,
    request_seq: AtomicU64,
}

impl ServerMetrics {
    /// Register the server's metric family on `registry`.
    pub fn new(registry: Arc<MetricsRegistry>, collect_trace: bool) -> Self {
        Self {
            sessions_total: registry.counter("server_sessions_total"),
            requests_total: registry.counter("server_requests_total"),
            requests_done: registry.counter("server_requests_done"),
            requests_failed: registry.counter("server_requests_failed"),
            bytes_in: registry.counter("server_bytes_in"),
            bytes_out: registry.counter("server_bytes_out"),
            frames_total: registry.counter("server_frames_total"),
            panics_contained: registry.counter("server_panics_contained"),
            retries: registry.counter("server_retries"),
            protocol_errors: registry.counter("server_protocol_errors"),
            request_us: registry.histogram("server_request_us"),
            active_sessions: registry.gauge("server_active_sessions"),
            active_streams: registry.gauge("server_active_streams"),
            active_bytes: registry.gauge("server_active_bytes"),
            trace: collect_trace.then(|| Mutex::new(Vec::new())),
            epoch: Instant::now(),
            request_seq: AtomicU64::new(0),
            registry,
        }
    }

    /// The registry every handle records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Count a typed rejection (connection- or request-level).
    pub fn reject(&self, code: RejectCode) {
        self.registry.counter(&format!("server_reject_{}", code.as_str())).inc();
    }

    /// Count one admitted request for `tenant` running `op`.
    pub fn tenant_request(&self, tenant: &str, op: &str, payload: u64) {
        let t = sanitize_tenant(tenant);
        self.registry.counter(&format!("server_tenant_{t}_requests")).inc();
        self.registry.counter(&format!("server_tenant_{t}_bytes_in")).add(payload);
        self.registry.counter(&format!("server_op_{op}_requests")).inc();
    }

    /// Record a finished request's latency under both the shared and the
    /// per-op histogram.
    pub fn request_latency(&self, op: &str, us: u64) {
        self.request_us.record(us);
        self.registry.histogram(&format!("server_op_{op}_us")).record(us);
    }

    /// Refresh the liveness gauges from the admission controller.
    pub fn refresh_gauges(&self, sessions: usize, streams: usize, bytes: u64) {
        self.active_sessions.set(sessions as f64);
        self.active_streams.set(streams as f64);
        self.active_bytes.set(bytes as f64);
    }

    /// Microseconds since the server epoch (span timestamps).
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Allocate the next request ordinal (distinct span IDs per request).
    pub fn next_request_ordinal(&self) -> u64 {
        self.request_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Span ID of connection `session` (child of the serve root).
    pub fn connection_span(session: u64) -> u64 {
        frame_span(session)
    }

    /// Emit the span for one finished request: a child of its connection's
    /// span, with a nested job span carrying frame/byte counts. No-op when
    /// tracing is off.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_request(
        &self,
        session: u64,
        ordinal: u64,
        op: &str,
        tenant: &str,
        start_us: f64,
        frames: u64,
        outcome: &str,
    ) {
        let Some(trace) = &self.trace else { return };
        let conn = Self::connection_span(session);
        let req_span = stage_span(conn, u32::try_from(ordinal & 0x00FF_FFFF).expect("masked"));
        let mut timer =
            SpanTimer::new(self.epoch, u32::try_from(session & 0xFFFF_FFFF).unwrap_or(0));
        let mut args = span_args(req_span, conn);
        args.push(("tenant", sanitize_tenant(tenant).into()));
        args.push(("frames", frames.into()));
        args.push(("outcome", outcome.into()));
        timer.complete(format!("{op} request #{ordinal}"), "server.request", start_us, args);
        let mut events = trace.lock().expect("trace lock");
        events.extend(timer.drain());
    }

    /// Emit the span covering one whole connection. No-op when tracing is
    /// off.
    pub fn trace_connection(&self, session: u64, tenant: &str, start_us: f64, requests: u64) {
        let Some(trace) = &self.trace else { return };
        let conn = Self::connection_span(session);
        let mut timer =
            SpanTimer::new(self.epoch, u32::try_from(session & 0xFFFF_FFFF).unwrap_or(0));
        let mut args = span_args(conn, ROOT_SPAN);
        args.push(("tenant", sanitize_tenant(tenant).into()));
        args.push(("requests", requests.into()));
        timer.complete(format!("connection {session}"), "server.connection", start_us, args);
        trace.lock().expect("trace lock").extend(timer.drain());
    }

    /// Close the trace with the root "serve" span and take every event.
    /// The result is one causal tree: serve → connection → request.
    /// Empty when tracing is off.
    pub fn finish_trace(&self) -> Vec<TraceEvent> {
        let Some(trace) = &self.trace else { return Vec::new() };
        let mut timer = SpanTimer::new(self.epoch, 0);
        timer.complete("serve".to_string(), "server", 0.0, span_args(ROOT_SPAN, 0));
        let mut events = trace.lock().expect("trace lock");
        events.extend(timer.drain());
        std::mem::take(&mut events)
    }
}

/// Clamp a wire-supplied tenant name into a safe metric-name fragment:
/// lowercase alphanumerics and underscores, at most [`TENANT_NAME_CAP`]
/// characters, never empty.
pub fn sanitize_tenant(tenant: &str) -> String {
    let mut out: String = tenant
        .chars()
        .take(TENANT_NAME_CAP)
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lzfpga_telemetry::validate_span_tree;

    #[test]
    fn tenant_names_are_sanitized_and_bounded() {
        assert_eq!(sanitize_tenant("Acme-Corp"), "acme_corp");
        assert_eq!(sanitize_tenant(""), "_");
        assert_eq!(sanitize_tenant("\n{}\u{7f}"), "____");
        let long = sanitize_tenant(&"x".repeat(1000));
        assert_eq!(long.len(), TENANT_NAME_CAP);
    }

    #[test]
    fn rejects_and_tenants_register_lazily() {
        let m = ServerMetrics::new(Arc::new(MetricsRegistry::new()), false);
        m.reject(RejectCode::StreamQuota);
        m.reject(RejectCode::StreamQuota);
        m.tenant_request("alice", "compress", 100);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("server_reject_stream_quota"), 2);
        assert_eq!(snap.counter("server_tenant_alice_requests"), 1);
        assert_eq!(snap.counter("server_tenant_alice_bytes_in"), 100);
        assert_eq!(snap.counter("server_op_compress_requests"), 1);
    }

    #[test]
    fn trace_forms_one_causal_tree() {
        let m = ServerMetrics::new(Arc::new(MetricsRegistry::new()), true);
        for session in 1..=2u64 {
            for r in 0..3 {
                let ordinal = m.next_request_ordinal();
                m.trace_request(session, ordinal, "compress", "acme", 1.0 + r as f64, 4, "done");
            }
            m.trace_connection(session, "acme", 0.5, 3);
        }
        let events = m.finish_trace();
        let summary = validate_span_tree(&events).expect("one tree");
        assert_eq!(summary.spans, 2 * (3 + 1) + 1);
    }
}
