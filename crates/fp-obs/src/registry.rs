//! The name-keyed [`MetricsRegistry`] and its plain-value snapshots.

use crate::instrument::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::sync::{Arc, Mutex};

/// A live instrument handle as the registry stores it.
#[derive(Clone, Debug)]
pub enum Instrument {
    /// A monotonic counter.
    Counter(Arc<Counter>),
    /// A settable signed level.
    Gauge(Arc<Gauge>),
    /// A log2-bucket histogram.
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    instrument: Instrument,
}

/// A registry of named instruments, keyed by name.
///
/// Callers resolve a name **once** (taking the registry lock and a scan of
/// the registered names) and hold the returned `Arc` handle; every record after that is a
/// lock-free atomic on the instrument itself. Re-registering a name returns
/// the existing handle, so any number of components can share one metric;
/// asking for an existing name as a *different* instrument kind panics —
/// that is a wiring bug, not a runtime condition.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().unwrap();
        write!(f, "MetricsRegistry({} metrics)", entries.len())
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return e.instrument.clone();
        }
        let instrument = make();
        entries.push(Entry {
            name: name.to_string(),
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Instrument::Counter(Arc::new(Counter::new()))) {
            Instrument::Counter(c) => c,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Instrument::Gauge(Arc::new(Gauge::new()))) {
            Instrument::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Instrument::Histogram(Arc::new(Histogram::new()))) {
            Instrument::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// A plain-value snapshot of every registered metric, sorted by name so
    /// snapshots (and everything rendered from them) are deterministic
    /// regardless of registration order.
    pub fn snapshot(&self) -> ObsSnapshot {
        let entries = self.entries.lock().unwrap();
        let mut metrics: Vec<MetricValue> = entries
            .iter()
            .map(|e| MetricValue {
                name: e.name.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => Value::Counter(c.value()),
                    Instrument::Gauge(g) => Value::Gauge(g.value()),
                    Instrument::Histogram(h) => Value::Histogram(h.snapshot()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        ObsSnapshot { metrics }
    }
}

/// One metric's plain value at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    /// The registered metric name.
    pub name: String,
    /// The instrument's value.
    pub value: Value,
}

/// The plain value of one instrument.
///
/// The histogram variant carries its full bucket array inline: snapshot
/// values are built once per snapshot on the cold path, so the size skew
/// against the scalar variants costs nothing that boxing would save.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Value {
    /// A counter total.
    Counter(u64),
    /// A gauge level.
    Gauge(i64),
    /// A histogram state.
    Histogram(HistogramSnapshot),
}

/// A plain-value snapshot of a whole registry, sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    /// All metrics, name-sorted.
    pub metrics: Vec<MetricValue>,
}

impl ObsSnapshot {
    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.metrics
            .binary_search_by(|m| m.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].value)
    }

    /// The counter `name`, if registered as one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            Value::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge `name`, if registered as one.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            Value::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, if registered as one.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            Value::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// The change since an `earlier` snapshot of the same registry:
    /// counters and histograms subtract (saturating, bucket-wise);
    /// gauges are levels, so the later value is kept as-is. Metrics that
    /// appear only in the later snapshot pass through whole.
    pub fn delta(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = match (&m.value, earlier.get(&m.name)) {
                    (Value::Counter(now), Some(Value::Counter(then))) => {
                        Value::Counter(now.saturating_sub(*then))
                    }
                    (Value::Histogram(now), Some(Value::Histogram(then))) => {
                        Value::Histogram(now.delta(then))
                    }
                    (v, _) => v.clone(),
                };
                MetricValue {
                    name: m.name.clone(),
                    value,
                }
            })
            .collect();
        ObsSnapshot { metrics }
    }
}

/// One round's observability record: the wall time the round took plus the
/// registry delta over the round.
///
/// This rides on `RoundStats` for reporting but is **excluded from the
/// `RUNFP_V1` `behavior` fold** — execution-time metrics are an execution
/// parameter (like the shard count), not observable behaviour; folding them
/// in would make every golden fingerprint machine- and load-dependent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundObs {
    /// Wall-clock nanoseconds the round took end to end.
    pub wall_ns: u64,
    /// Registry delta over the round (see [`ObsSnapshot::delta`]).
    pub snapshot: ObsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_snapshot_sorted() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("obs_test_registry_zeta");
        let c2 = reg.counter("obs_test_registry_zeta");
        c1.inc();
        c2.inc();
        reg.gauge("obs_test_registry_alpha").set(7);
        reg.histogram("obs_test_registry_mid").record(42);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.counter("obs_test_registry_zeta"), Some(2));
        assert_eq!(snap.gauge("obs_test_registry_alpha"), Some(7));
        assert_eq!(snap.histogram("obs_test_registry_mid").unwrap().count(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("obs_test_registry_kind");
        reg.gauge("obs_test_registry_kind");
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("obs_test_delta_events");
        let g = reg.gauge("obs_test_delta_level");
        let h = reg.histogram("obs_test_delta_lat");
        c.add(10);
        g.set(100);
        h.record(5);
        let earlier = reg.snapshot();
        c.add(3);
        g.set(42);
        h.record(5);
        h.record(900);
        let d = reg.snapshot().delta(&earlier);
        assert_eq!(d.counter("obs_test_delta_events"), Some(3));
        assert_eq!(d.gauge("obs_test_delta_level"), Some(42));
        let hd = d.histogram("obs_test_delta_lat").unwrap();
        assert_eq!(hd.count(), 2);
        assert_eq!(hd.sum, 905);
    }

    #[test]
    fn delta_passes_new_metrics_through() {
        let reg = MetricsRegistry::new();
        let earlier = reg.snapshot();
        reg.counter("obs_test_delta_fresh").add(4);
        let d = reg.snapshot().delta(&earlier);
        assert_eq!(d.counter("obs_test_delta_fresh"), Some(4));
    }
}
