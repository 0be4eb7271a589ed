//! Server-edge metrics: connection counters plus per-tenant QoS.
//!
//! PR 4 gave the engine per-*class* latency histograms; a server edge
//! is where those become per-*tenant*: every session carries the
//! tenant tag from its `Hello`, and the session loop records each
//! request's end-to-end latency (frame decoded → response encoded)
//! into that tenant's [`LatencyHistogram`] — the same log-linear
//! histogram the engine uses, so percentiles are comparable
//! across layers. Shed rejections ([`Error::Overloaded`] leaving as
//! wire code 11) are counted per tenant too: "which tenant is driving
//! the overload" is the first question an operator asks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sstore_engine::metrics::LatencyHistogram;

/// One tenant's request accounting.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Requests that produced a success response.
    pub ok: AtomicU64,
    /// Requests that produced an error response (sheds included).
    pub errors: AtomicU64,
    /// Error responses that were shed rejections (wire code 11,
    /// `Error::Overloaded`) — the back-off signal, broken out because
    /// an overloaded tenant is an operations question, not a bug.
    pub shed: AtomicU64,
    /// End-to-end request latency at the session edge: request frame
    /// decoded → response frame queued.
    pub e2e: LatencyHistogram,
}

/// Whole-server counters plus the per-tenant table.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted since start.
    pub connections: AtomicU64,
    /// Sessions that ended (any reason: Goodbye, disconnect, error).
    pub sessions_closed: AtomicU64,
    /// Total requests served (all tenants, success + error).
    pub requests: AtomicU64,
    /// Frames that failed to decode, or sessions that violated the
    /// protocol (bad handshake, oversized frame, trailing bytes).
    pub protocol_errors: AtomicU64,
    tenants: Mutex<HashMap<String, Arc<TenantStats>>>,
}

impl ServerMetrics {
    pub fn new() -> Arc<ServerMetrics> {
        Arc::new(ServerMetrics::default())
    }

    /// The stats cell for a tenant, created on first sight.
    pub fn tenant(&self, name: &str) -> Arc<TenantStats> {
        let mut map = self.tenants.lock();
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Tenant names seen so far, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Records one served request against a tenant.
    pub fn record(&self, tenant: &TenantStats, latency: Duration, shed: bool, ok: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        tenant.e2e.record(latency);
        if ok {
            tenant.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            tenant.errors.fetch_add(1, Ordering::Relaxed);
            if shed {
                tenant.shed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Flattens everything into stable `name → value` pairs for the
    /// wire (`Response::Metrics`): server counters first, then one
    /// group per tenant (`tenant.<name>.ok`, `.errors`, `.shed`,
    /// `.e2e_p50_us`/`_p95_us`/`_p99_us`).
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("server.connections".to_owned(), self.connections.load(Ordering::Relaxed)),
            ("server.sessions_closed".to_owned(), self.sessions_closed.load(Ordering::Relaxed)),
            ("server.requests".to_owned(), self.requests.load(Ordering::Relaxed)),
            (
                "server.protocol_errors".to_owned(),
                self.protocol_errors.load(Ordering::Relaxed),
            ),
        ];
        for name in self.tenant_names() {
            let t = self.tenant(&name);
            let snap = t.e2e.snapshot();
            out.push((format!("tenant.{name}.ok"), t.ok.load(Ordering::Relaxed)));
            out.push((format!("tenant.{name}.errors"), t.errors.load(Ordering::Relaxed)));
            out.push((format!("tenant.{name}.shed"), t.shed.load(Ordering::Relaxed)));
            out.push((format!("tenant.{name}.e2e_p50_us"), snap.p50.as_micros() as u64));
            out.push((format!("tenant.{name}.e2e_p95_us"), snap.p95.as_micros() as u64));
            out.push((format!("tenant.{name}.e2e_p99_us"), snap.p99.as_micros() as u64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_are_separate_cells() {
        let m = ServerMetrics::new();
        let a = m.tenant("a");
        let b = m.tenant("b");
        m.record(&a, Duration::from_micros(100), false, true);
        m.record(&b, Duration::from_micros(100), true, false);
        assert_eq!(a.ok.load(Ordering::Relaxed), 1);
        assert_eq!(a.shed.load(Ordering::Relaxed), 0);
        assert_eq!(b.errors.load(Ordering::Relaxed), 1);
        assert_eq!(b.shed.load(Ordering::Relaxed), 1);
        assert_eq!(m.requests.load(Ordering::Relaxed), 2);
        assert_eq!(m.tenant_names(), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn entries_cover_every_tenant() {
        let m = ServerMetrics::new();
        m.record(&m.tenant("t1"), Duration::from_micros(50), false, true);
        let entries = m.entries();
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"server.requests"));
        assert!(keys.contains(&"tenant.t1.ok"));
        assert!(keys.contains(&"tenant.t1.e2e_p99_us"));
    }
}
