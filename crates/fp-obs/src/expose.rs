//! Text exposition: the greppable `obs[...]` ledger.

use crate::registry::{ObsSnapshot, Value};

/// Map a metric name into the Prometheus name charset
/// (`[a-zA-Z0-9_:]`); anything else becomes `_`.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// One greppable ledger line per metric, same discipline as the
/// `runfp[...]` fingerprint lines:
///
/// ```text
/// obs[site_requests_admitted] counter value=25472
/// obs[store_resident_records] gauge value=6368
/// obs[site_admission_to_verdict_ns] histogram count=25472 sum=... p50=2047 p90=4095 p99=8191 p999=16383
/// ```
pub fn ledger(snap: &ObsSnapshot) -> Vec<String> {
    snap.metrics
        .iter()
        .map(|m| {
            let name = sanitize(&m.name);
            match &m.value {
                Value::Counter(v) => format!("obs[{name}] counter value={v}"),
                Value::Gauge(v) => format!("obs[{name}] gauge value={v}"),
                Value::Histogram(h) => format!(
                    "obs[{name}] histogram count={} sum={} p50={} p90={} p99={} p999={}",
                    h.count(),
                    h.sum,
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.quantile(0.999),
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("obs_test_expose_events").add(12);
        reg.gauge("obs_test_expose_level").set(-3);
        let h = reg.histogram("obs_test_expose_lat_ns");
        for v in [0u64, 1, 3, 900, 900, 4096] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn ledger_lines_are_greppable() {
        let snap = sample_registry().snapshot();
        let lines = ledger(&snap);
        assert!(lines
            .iter()
            .all(|l| l.starts_with("obs[") && l.contains(']')));
        let hist = lines
            .iter()
            .find(|l| l.starts_with("obs[obs_test_expose_lat_ns]"))
            .unwrap();
        assert!(hist.contains("count=6"), "{hist}");
        assert!(hist.contains("p50="), "{hist}");
        assert!(hist.contains("p999="), "{hist}");
    }

    #[test]
    fn sanitize_maps_to_prometheus_charset() {
        assert_eq!(
            sanitize("detector.observe-ns/fp spatial"),
            "detector_observe_ns_fp_spatial"
        );
        assert_eq!(sanitize("already_fine:ns"), "already_fine:ns");
    }
}
