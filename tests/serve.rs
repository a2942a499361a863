//! Serving-layer equivalence and backpressure: the continuously running
//! service ([`HoneySite::serve`]) must be verdict-for-verdict identical
//! to the batch paths for every admitted request, shed *exactly* the
//! over-capacity remainder under a flash crowd, and never deadlock.

use fp_honeysite::serve::{
    SERVE_COLLECTOR_DEPTH_PEAK, SERVE_INGRESS_DEPTH_PEAK, SERVE_REQUESTS_SHED,
    SERVE_SHARD_DEPTH_PEAK,
};
use fp_honeysite::{FpService, StoredRequest, SubmitOutcome};
use fp_inconsistent::prelude::*;
use fp_obs::MetricsRegistry;
use fp_types::{
    sym, AttrId, BehaviorTrace, Fingerprint, OverflowPolicy, ServeConfig, SimTime, StateScope,
    TrafficSource,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

fn build_request(
    i: u64,
    cookie: Option<u64>,
    ip_low: u8,
    cores: i64,
    tz_offset: i64,
    device: &str,
) -> Request {
    Request {
        id: 0,
        time: SimTime::from_day(0, i),
        site_token: sym("serve-tok"),
        ip: Ipv4Addr::new(73, 11, 0, ip_low),
        cookie,
        fingerprint: Fingerprint::new()
            .with(AttrId::UaDevice, device)
            .with(AttrId::HardwareConcurrency, cores)
            .with(AttrId::TimezoneOffset, tz_offset)
            .with(AttrId::Timezone, "America/Los_Angeles"),
        tls: fp_types::TlsFacet::unobserved(),
        behavior: BehaviorTrace::silent(),
        cadence: fp_types::BehaviorFacet::unobserved(),
        source: TrafficSource::RealUser,
    }
}

/// A varied synthetic stream: shared cookies, shared IPs, churning
/// hardware — the anchors the per-cookie/per-IP temporal detectors key on.
fn varied_requests(count: u64) -> Vec<Request> {
    (0..count)
        .map(|i| {
            build_request(
                i,
                (i % 3 != 0).then_some(i % 5),
                (i % 4) as u8,
                2 + (i % 7) as i64,
                [480, -60, 0][(i % 3) as usize],
                ["iPhone", "Mac", "Windows"][(i % 3) as usize],
            )
        })
        .collect()
}

/// A site running the default chain plus the engine's spatial/temporal
/// detectors — full scope coverage (stateless, per-IP, per-cookie).
fn full_chain_site() -> HoneySite {
    let mut site = HoneySite::new();
    site.register_token(sym("serve-tok"));
    let engine = FpInconsistent::from_rules(RuleSet::new());
    for d in engine.detectors() {
        site.push_detector(d);
    }
    site
}

/// Finish `service` on its own thread: the deadlock guard — the drain
/// must complete well under the timeout.
fn finish_within_deadline(service: FpService) -> HoneySite {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(service.finish());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("serving drain deadlocked")
}

/// The burst integration test (flash crowd at 4× the ingress capacity):
/// (a) verdicts for every admitted request are identical to the batch
/// path, (b) the shed counter equals *exactly* the over-capacity
/// remainder, (c) no stage deadlocks — the whole drain completes under a
/// timeout.
#[test]
fn burst_at_4x_capacity_sheds_exactly_and_matches_batch() {
    const CAPACITY: usize = 32;
    const BURST: usize = 4 * CAPACITY;
    let requests = varied_requests(BURST as u64);

    let registry = Arc::new(MetricsRegistry::new());
    let mut site = full_chain_site();
    site.set_metrics(registry.clone());
    // Paused + Shed: the workers hold off, so exactly the first
    // `CAPACITY` submissions fill the intake ring and every one after
    // that is shed — deterministically, no race against the drain.
    let mut service = site.serve(ServeConfig {
        shards: 2,
        ingress_capacity: CAPACITY,
        shard_capacity: 8,
        overflow: OverflowPolicy::Shed,
        start_paused: true,
    });
    for request in requests.iter().cloned() {
        let _ = service.submit(request);
    }
    assert_eq!(service.enqueued_count(), CAPACITY as u64);
    assert_eq!(
        service.shed_count(),
        (BURST - CAPACITY) as u64,
        "shed must be exactly the over-capacity remainder"
    );
    service.resume();
    let served = finish_within_deadline(service).into_store();

    // Admitted = the first CAPACITY submissions (the ring filled in
    // submit order). Their verdicts must equal the sequential batch path
    // over the same prefix, record for record.
    let mut batch_site = full_chain_site();
    batch_site.ingest_all(requests[..CAPACITY].iter().cloned());
    let batch = batch_site.into_store();
    assert_eq!(served.len(), CAPACITY);
    assert_eq!(batch.len(), CAPACITY);
    for (a, b) in batch.iter().zip(served.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.cookie, b.cookie, "cookie issuance must match");
        assert_eq!(a.verdicts, b.verdicts, "request {}", a.id);
    }

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(SERVE_REQUESTS_SHED),
        Some((BURST - CAPACITY) as u64)
    );
    assert_eq!(
        snap.counter(fp_honeysite::site::REQUESTS_ADMITTED),
        Some(CAPACITY as u64)
    );
    let latency = snap
        .histogram(fp_honeysite::site::ADMISSION_TO_VERDICT_NS)
        .expect("latency histogram registered");
    assert_eq!(latency.count(), CAPACITY as u64);
}

/// Blocking backpressure: with a tiny intake ring and Block overflow,
/// every submission eventually lands — nothing shed, order preserved.
#[test]
fn block_overflow_completes_everything_through_tiny_queues() {
    let requests = varied_requests(100);
    let mut service = full_chain_site().serve(ServeConfig {
        shards: 2,
        ingress_capacity: 2,
        shard_capacity: 2,
        overflow: OverflowPolicy::Block,
        start_paused: false,
    });
    for request in requests.iter().cloned() {
        assert_eq!(service.submit(request), SubmitOutcome::Enqueued);
    }
    assert_eq!(service.shed_count(), 0);
    let store = service.finish().into_store();
    assert_eq!(store.len(), 100);
    let ids: Vec<u64> = store.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..100).collect::<Vec<u64>>(), "in-order commit");
}

/// Bounded memory: the ring never holds more than its capacity, and no
/// worker reads or leaves decided more than the commit window. A paused
/// service fills its 64-slot ring, then the workers drain it through a
/// 2-request window — every read waits on the commit before it.
#[test]
fn queue_depths_stay_within_their_capacities() {
    const INGRESS: usize = 64;
    const SHARD: usize = 2;
    let requests = varied_requests(INGRESS as u64);
    let mut batch_site = full_chain_site();
    batch_site.ingest_all(requests.iter().cloned());
    let batch = batch_site.into_store();

    for shards in [1usize, 2] {
        let registry = Arc::new(MetricsRegistry::new());
        let mut site = full_chain_site();
        site.set_metrics(registry.clone());
        let mut service = site.serve(ServeConfig {
            shards,
            ingress_capacity: INGRESS,
            shard_capacity: SHARD,
            overflow: OverflowPolicy::Block,
            start_paused: true,
        });
        for request in requests.iter().cloned() {
            assert_eq!(service.submit(request), SubmitOutcome::Enqueued);
        }
        service.resume();
        let served = finish_within_deadline(service).into_store();

        let snap = registry.snapshot();
        let peak = |name: &str| snap.gauge(name).expect("depth gauges are set at finish");
        // Filled to capacity and never past it: the paused ring holds
        // every submission, and each worker takes at most the 2-request
        // window per read.
        assert_eq!(peak(SERVE_INGRESS_DEPTH_PEAK), INGRESS as i64);
        assert_eq!(peak(SERVE_SHARD_DEPTH_PEAK), SHARD as i64);
        // Requests decided on a route and waiting to commit stay inside
        // the window too.
        assert!(peak(SERVE_COLLECTOR_DEPTH_PEAK) <= SHARD as i64);

        let ids: Vec<u64> = served.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            (0..INGRESS as u64).collect::<Vec<u64>>(),
            "in-order commit"
        );
        for (a, b) in batch.iter().zip(served.iter()) {
            assert_eq!(a.cookie, b.cookie, "cookie issuance must match");
            assert_eq!(
                a.verdicts, b.verdicts,
                "request {} at {shards} shards",
                a.id
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fault: a detector that panics mid-stream must fail every engine the
// same way — its own panic on the caller's thread — and hang none.

const DETECTOR_FAULT: &str = "detector fault on the 10th observe";

/// Panics on its 10th `observe` (each shard fork counts its own).
struct PanicsOnTenth {
    seen: u32,
    scope: StateScope,
}

impl Detector for PanicsOnTenth {
    fn name(&self) -> &'static str {
        "panics-on-tenth"
    }
    fn scope(&self) -> StateScope {
        self.scope
    }
    fn observe(&mut self, _request: &StoredRequest) -> Verdict {
        self.seen += 1;
        assert!(self.seen < 10, "{DETECTOR_FAULT}");
        Verdict::Human
    }
    fn fork(&self) -> Box<dyn Detector> {
        Box::new(PanicsOnTenth {
            seen: 0,
            scope: self.scope,
        })
    }
}

fn faulty_site(scope: StateScope) -> HoneySite {
    let mut site = full_chain_site();
    site.push_detector(Box::new(PanicsOnTenth { seen: 0, scope }));
    site
}

/// Run `engine` on its own thread under a timeout and return the message
/// of the panic it raised (`None` if it returned normally).
fn panic_of(engine: impl FnOnce() + Send + 'static) -> Option<String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let raised = catch_unwind(AssertUnwindSafe(engine)).err().map(|panic| {
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        let _ = tx.send(raised);
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("an engine hung on a panicking detector")
}

/// The regression for the serving hang: a dead worker must not leave
/// `finish`, `Drop` or `submit` waiting forever. Under Block the ring is
/// 2 slots deep, so `submit` waits on it; under Shed it has room for the
/// whole stream, so nothing is shed, every fork reaches its 10th request
/// and the dead worker leaves slots behind that only it could decide. A
/// 2-request window makes a missed wake-up certain to hang; both routes,
/// both shard counts and both overflow policies are covered.
#[test]
fn a_panicking_detector_fails_every_engine_without_hanging() {
    let requests = varied_requests(100);
    for scope in [StateScope::Stateless, StateScope::PerCookie] {
        let batch = requests.clone();
        assert_eq!(
            panic_of(move || faulty_site(scope).ingest_all(batch)).as_deref(),
            Some(DETECTOR_FAULT),
            "ingest_all, {scope:?}"
        );
        for shards in [1usize, 2] {
            let stream = requests.clone();
            assert_eq!(
                panic_of(move || {
                    faulty_site(scope).ingest_stream(stream, shards);
                })
                .as_deref(),
                Some(DETECTOR_FAULT),
                "ingest_stream at {shards} shards, {scope:?}"
            );
            for (overflow, ingress_capacity) in [
                (OverflowPolicy::Block, 2),
                (OverflowPolicy::Shed, requests.len()),
            ] {
                let served = requests.clone();
                assert_eq!(
                    panic_of(move || {
                        let mut service = faulty_site(scope).serve(ServeConfig {
                            shards,
                            ingress_capacity,
                            shard_capacity: 2,
                            overflow,
                            start_paused: false,
                        });
                        for request in served {
                            service.submit(request);
                        }
                        service.finish();
                    })
                    .as_deref(),
                    Some(DETECTOR_FAULT),
                    "serve at {shards} shards, {overflow:?}, {scope:?}"
                );
            }
        }
    }
}

/// Dropping a service whose worker died returns too (the stage panic is
/// discarded with the store).
#[test]
fn dropping_a_service_with_a_dead_worker_returns() {
    let requests = varied_requests(100);
    assert_eq!(
        panic_of(move || {
            let mut service = faulty_site(StateScope::Stateless).serve(ServeConfig {
                shards: 2,
                ingress_capacity: 2,
                shard_capacity: 2,
                overflow: OverflowPolicy::Block,
                start_paused: false,
            });
            for request in requests {
                service.submit(request);
            }
            drop(service);
        }),
        None
    );
}

// ---------------------------------------------------------------------
// Property: batch↔serve flag identity at 1, 2 and 8 shards, on
// adversarial synthetic streams (shared cookies, shared IPs, churn), with
// a 4-request commit window and with the narrowest one: at 1, every read
// waits on the commit before it, so a lost "window moved" wake-up hangs
// the drain — which `finish_within_deadline` turns into a failure.

proptest! {
    #[test]
    fn serve_flags_match_batch_at_1_2_8_shards(
        rows in proptest::collection::vec(
            (
                prop_oneof![Just(None), (0u64..4).prop_map(Some)], // cookie: shared or fresh
                0u8..4,                                            // ip: heavily shared
                (2i64..9),                                         // cores: churn per cookie
                prop_oneof![Just(480i64), Just(-60i64), Just(0i64)], // tz churn per ip
                prop_oneof![Just("iPhone"), Just("Mac"), Just("Windows")],
            ),
            1..60,
        )
    ) {
        let requests: Vec<Request> = rows
            .iter()
            .enumerate()
            .map(|(i, (cookie, ip, cores, tz, device))| {
                build_request(i as u64, *cookie, *ip, *cores, *tz, device)
            })
            .collect();

        let mut batch_site = full_chain_site();
        batch_site.ingest_all(requests.iter().cloned());
        let baseline = batch_site.into_store();

        for (shards, shard_capacity) in [(1usize, 4usize), (2, 4), (8, 4), (1, 1), (2, 1), (8, 1)] {
            let mut service = full_chain_site().serve(ServeConfig {
                shards,
                ingress_capacity: 4,
                shard_capacity,
                overflow: OverflowPolicy::Block,
                start_paused: false,
            });
            for request in requests.iter().cloned() {
                prop_assert_eq!(service.submit(request), SubmitOutcome::Enqueued);
            }
            let store = finish_within_deadline(service).into_store();
            prop_assert_eq!(store.len(), baseline.len());
            for (a, b) in baseline.iter().zip(store.iter()) {
                prop_assert_eq!(a.cookie, b.cookie);
                prop_assert_eq!(
                    &a.verdicts,
                    &b.verdicts,
                    "request {} at {} shards, window {}",
                    a.id,
                    shards,
                    shard_capacity
                );
            }
        }
    }
}
