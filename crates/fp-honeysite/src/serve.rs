//! The continuously running serving layer — the site's one sharded
//! ingest engine.
//!
//! [`HoneySite::serve`] turns the site into an [`FpService`]: resident
//! workers behind **bounded queues** that process each request end to
//! end as it arrives — the shape a deployed honey site actually has, and
//! the shape the always-on admission-to-verdict histogram was built to
//! measure. [`HoneySite::ingest_stream`] is a batch driver over the same
//! service: submit every request, then [`FpService::finish`].
//!
//! Topology (one thread per box, one bounded queue per arrow):
//!
//! ```text
//! caller ──submit──▶ [ingress] ──▶ enricher ──▶ [ip shard 0..n]  ──▶ ip workers ──┐
//!   │                                  │                                          ├─▶ [collector] ─▶ collector ─▶ store
//!   │ token check                      └─────▶ [cookie shard 0..n] ─▶ ck workers ─┘
//!   └─ full ingress: Block (wait) or Shed (drop + count)
//! ```
//!
//! * **Admission on the hot path**: the caller's thread runs the token
//!   check (cookie issuance) *before* anything is enqueued — a rejected
//!   request never costs queue space or a worker's time. A caller that
//!   turns addresses away (the arena's TTL blocklist) does so before it
//!   submits.
//! * **Backpressure is explicit**: the ingress queue is the sole intake
//!   gate. When it is full, [`OverflowPolicy::Block`] makes `submit`
//!   wait for drain (nothing dropped, latency absorbs the spike) and
//!   [`OverflowPolicy::Shed`] returns [`SubmitOutcome::Shed`]
//!   immediately and bumps [`SERVE_REQUESTS_SHED`].
//! * **Micro-batched hand-offs**: each stage takes everything queued on
//!   its input under one lock, processes it, and forwards one batch per
//!   destination queue, pushed under one lock per chunk that fits the
//!   free room. There is no batch size and no timer, so no request waits
//!   for a batch to fill: a batch is whatever has queued up — about one
//!   request under light load, larger under saturation, where per-item
//!   locking and wake-ups would otherwise bound throughput. Capacities
//!   count items, so each stage holds at most one drained queue's worth
//!   beyond its queues.
//! * **Workers never block on each other**: each shard worker blocks
//!   only on its own input queue and on the collector queue (a sink that
//!   is always drained). The queue graph is acyclic, so the service
//!   cannot deadlock.
//! * **A dying stage never strands the others**: every stage closes the
//!   queues it consumes (and a shard worker signs off with the collector)
//!   from a drop guard, on a normal exit and on a panic alike. A push
//!   into a closed queue drops the items instead of waiting, so a
//!   panicking detector cannot hang `submit`, the collector, `finish` or
//!   `Drop`; [`FpService::finish`] re-raises the first stage panic.
//! * **Flag identity with the sequential loop**: the shard workers are
//!   the route kernel's, forked over its anchor split; routing uses the
//!   [`shard_for`] keys, the enricher forwards work in admission order
//!   (FIFO queues and order-preserving batches keep it per shard), and
//!   detectors observe records in the same pre-verdict state (`id == 0`,
//!   empty verdict set). For any anchor value the observing detector
//!   fork sees exactly the subsequence the sequential loop would have
//!   shown it — verdict-for-verdict equivalence at any shard count
//!   (property-tested in `tests/serve.rs` and `tests/streaming.rs`).
//! * **In-order commit**: the collector holds a reorder buffer and
//!   commits records to the store strictly in admission order through
//!   the kernel's chain-order commit, so dense ids and iteration order
//!   match the sequential loop.

use crate::route::{RouteWorker, TaggedVerdicts};
use crate::site::{derive_record, HoneySite};
use crate::store::{RequestStore, StoredRequest};
use fp_obs::{Counter, Gauge, Histogram};
use fp_types::{shard_for, CookieId, OverflowPolicy, Request, ServeConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Registry name of the shed-request counter (requests turned away by a
/// full ingress queue under [`OverflowPolicy::Shed`]).
pub const SERVE_REQUESTS_SHED: &str = "serve_requests_shed";
/// Registry name of the ingress-queue high-water gauge (set at
/// [`FpService::finish`]).
pub const SERVE_INGRESS_DEPTH_PEAK: &str = "serve_ingress_depth_peak";
/// Registry name of the shard-queue high-water gauge (max over every
/// per-shard queue; set at [`FpService::finish`]).
pub const SERVE_SHARD_DEPTH_PEAK: &str = "serve_shard_depth_peak";
/// Registry name of the collector-queue high-water gauge (set at
/// [`FpService::finish`]).
pub const SERVE_COLLECTOR_DEPTH_PEAK: &str = "serve_collector_depth_peak";

/// What [`FpService::submit`] did with one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted and enqueued; a verdict will be committed for it.
    Enqueued,
    /// No registered token — not recorded, exactly like the sequential
    /// loop.
    Rejected,
    /// The ingress queue was full under [`OverflowPolicy::Shed`]:
    /// dropped, counted in [`SERVE_REQUESTS_SHED`]. The request may have
    /// consumed a cookie number (the token check runs before the queue
    /// is probed, like a real site that sets its cookie before the
    /// backend sheds the page load).
    Shed,
}

/// A bounded MPSC queue: `Mutex<VecDeque>` plus two condvars. Consumers
/// take everything queued at once and producers push whole batches, so a
/// stage pays one lock and one wake-up per batch, not per item.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// High-water mark, for the depth gauges.
    peak: usize,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                peak: 0,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Push, waiting for space (the Block overflow posture). A closed
    /// queue has lost its consumer: the item is dropped, never waited on.
    fn push_block(&self, item: T) {
        let mut s = self.state.lock().expect("queue poisoned");
        while s.items.len() >= self.capacity && !s.closed {
            s = self.not_full.wait(s).expect("queue poisoned");
        }
        if s.closed {
            return;
        }
        s.items.push_back(item);
        s.peak = s.peak.max(s.items.len());
        drop(s);
        self.not_empty.notify_one();
    }

    /// Push every item of `batch` in order, leaving it empty: each chunk
    /// fills the free room under one lock, waiting for room between
    /// chunks. A closed queue drops the rest of the batch.
    fn push_batch(&self, batch: &mut Vec<T>) {
        let mut items = batch.drain(..);
        while !items.as_slice().is_empty() {
            let mut s = self.state.lock().expect("queue poisoned");
            while s.items.len() >= self.capacity && !s.closed {
                s = self.not_full.wait(s).expect("queue poisoned");
            }
            if s.closed {
                return;
            }
            let room = self.capacity - s.items.len();
            s.items.extend(items.by_ref().take(room));
            s.peak = s.peak.max(s.items.len());
            drop(s);
            self.not_empty.notify_one();
        }
    }

    /// Push if there is space, else hand the item back (the Shed
    /// posture — never blocks).
    fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().expect("queue poisoned");
        if s.items.len() >= self.capacity {
            return Err(item);
        }
        s.items.push_back(item);
        s.peak = s.peak.max(s.items.len());
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Move every queued item into `batch` (which must be empty), waiting
    /// for at least one; `false` once the queue is closed *and* drained
    /// (the consumer's shutdown signal).
    fn pop_all(&self, batch: &mut VecDeque<T>) -> bool {
        debug_assert!(batch.is_empty(), "the previous batch was processed");
        let mut s = self.state.lock().expect("queue poisoned");
        while s.items.is_empty() {
            if s.closed {
                return false;
            }
            s = self.not_empty.wait(s).expect("queue poisoned");
        }
        // Swapping hands the queue the consumer's spent buffer, so the
        // two allocations take turns instead of being made afresh.
        std::mem::swap(&mut s.items, batch);
        drop(s);
        self.not_full.notify_all();
        true
    }

    /// Close the queue: producers stop, consumers drain then see `false`.
    /// Idempotent.
    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn peak(&self) -> usize {
        self.state.lock().expect("queue poisoned").peak
    }
}

/// Runs its closure when dropped — on a normal exit and while unwinding
/// from a panic alike. Each serving stage closes its queues through one,
/// so a dying stage releases every stage waiting on it.
struct OnExit<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnExit<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// The start-paused gate: while closed, the enricher holds off popping
/// the ingress queue so tests and the burst bench driver can fill it
/// deterministically.
struct PauseGate {
    paused: Mutex<bool>,
    cv: Condvar,
}

impl PauseGate {
    fn new(paused: bool) -> PauseGate {
        PauseGate {
            paused: Mutex::new(paused),
            cv: Condvar::new(),
        }
    }

    fn wait_open(&self) {
        let mut p = self.paused.lock().expect("gate poisoned");
        while *p {
            p = self.cv.wait(p).expect("gate poisoned");
        }
    }

    fn open(&self) {
        *self.paused.lock().expect("gate poisoned") = false;
        self.cv.notify_all();
    }
}

/// One admitted request on its way to the enricher.
struct IngressItem {
    seq: u64,
    request: Request,
    cookie: CookieId,
    ip_hash: u64,
    /// Admission stamp (the latency window opens here); only taken when
    /// a registry is attached, like the sequential loop.
    stamp: Option<Instant>,
}

/// One enriched record on its way to a shard worker.
struct ShardWork {
    seq: u64,
    record: Arc<StoredRequest>,
    stamp: Option<Instant>,
}

/// Which detector route produced a verdict batch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    Ip,
    Cookie,
}

/// What shard workers hand the collector.
enum Collected {
    Verdicts {
        seq: u64,
        route: Route,
        record: Arc<StoredRequest>,
        stamp: Option<Instant>,
        tagged: TaggedVerdicts,
    },
    /// One per worker when it exits, panics included; the collector
    /// exits after `2 * shards`.
    WorkerDone,
}

/// One request's state in the collector's reorder buffer.
#[derive(Default)]
struct Pending {
    record: Option<Arc<StoredRequest>>,
    ip: Option<TaggedVerdicts>,
    cookie: Option<TaggedVerdicts>,
    stamp: Option<Instant>,
}

/// The service-side instrument handles, resolved once at [`HoneySite::serve`].
struct ServeObs {
    latency: Arc<Histogram>,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    ingress_peak: Arc<Gauge>,
    shard_peak: Arc<Gauge>,
    collector_peak: Arc<Gauge>,
}

/// A continuously running honey site: admission on the caller's thread,
/// enrichment and detection on resident shard workers behind bounded
/// queues. Built by [`HoneySite::serve`]; torn down (and the site with
/// its recorded store handed back) by [`FpService::finish`].
pub struct FpService {
    /// The site while it serves — admission state (tokens, cookie
    /// counter, rejection count, metrics) lives here; its store is
    /// replaced wholesale at `finish`. `Option` only so `finish` can
    /// move it out past the `Drop` impl.
    site: Option<HoneySite>,
    config: ServeConfig,
    ingress: Arc<BoundedQueue<IngressItem>>,
    shard_queues: Vec<Arc<BoundedQueue<ShardWork>>>,
    collector_queue: Arc<BoundedQueue<Collected>>,
    gate: Arc<PauseGate>,
    enricher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    collector: Option<JoinHandle<RequestStore>>,
    obs: Option<ServeObs>,
    seq: u64,
    shed: u64,
}

impl HoneySite {
    /// Start serving: move the site behind a running [`FpService`].
    /// Requires an empty store (the recorded store is built by the
    /// service and adopted wholesale at [`FpService::finish`]); each call
    /// forks fresh detector state from the chain prototypes — a new
    /// measurement run.
    pub fn serve(self, config: ServeConfig) -> FpService {
        assert!(
            self.store().is_empty(),
            "serve() adopts a freshly built store; start from an empty site"
        );
        let n = config.shards.max(1);
        let routes = self.routes().clone();

        let obs = self.site_metrics().map(|m| ServeObs {
            latency: m.latency_ns.clone(),
            admitted: m.admitted.clone(),
            shed: m.registry.counter(SERVE_REQUESTS_SHED),
            ingress_peak: m.registry.gauge(SERVE_INGRESS_DEPTH_PEAK),
            shard_peak: m.registry.gauge(SERVE_SHARD_DEPTH_PEAK),
            collector_peak: m.registry.gauge(SERVE_COLLECTOR_DEPTH_PEAK),
        });
        let detector_ns: Vec<Arc<Histogram>> = self
            .site_metrics()
            .map(|m| m.detector_ns.clone())
            .unwrap_or_default();

        let ingress: Arc<BoundedQueue<IngressItem>> =
            Arc::new(BoundedQueue::new(config.ingress_capacity));
        let ip_queues: Vec<Arc<BoundedQueue<ShardWork>>> = (0..n)
            .map(|_| Arc::new(BoundedQueue::new(config.shard_capacity)))
            .collect();
        let cookie_queues: Vec<Arc<BoundedQueue<ShardWork>>> = (0..n)
            .map(|_| Arc::new(BoundedQueue::new(config.shard_capacity)))
            .collect();
        let collector_queue: Arc<BoundedQueue<Collected>> =
            Arc::new(BoundedQueue::new(config.shard_capacity.max(n * 2)));
        let gate = Arc::new(PauseGate::new(config.start_paused));

        // Enricher: FIFO over the ingress queue, and batches that keep
        // their order, preserve admission order into every shard queue,
        // which is what keeps per-anchor subsequences — and therefore
        // verdicts — identical to the sequential loop.
        let enricher = {
            let ingress = ingress.clone();
            let ip_queues = ip_queues.clone();
            let cookie_queues = cookie_queues.clone();
            let gate = gate.clone();
            std::thread::spawn(move || {
                let _close = OnExit(|| {
                    ingress.close();
                    for q in ip_queues.iter().chain(cookie_queues.iter()) {
                        q.close();
                    }
                });
                let mut batch = VecDeque::new();
                let mut ip_out: Vec<Vec<ShardWork>> = (0..n).map(|_| Vec::new()).collect();
                let mut cookie_out: Vec<Vec<ShardWork>> = (0..n).map(|_| Vec::new()).collect();
                gate.wait_open();
                while ingress.pop_all(&mut batch) {
                    for item in batch.drain(..) {
                        let record = Arc::new(derive_record(&item.request, item.cookie));
                        ip_out[shard_for(item.ip_hash, n)].push(ShardWork {
                            seq: item.seq,
                            record: record.clone(),
                            stamp: item.stamp,
                        });
                        cookie_out[shard_for(item.cookie, n)].push(ShardWork {
                            seq: item.seq,
                            record,
                            stamp: item.stamp,
                        });
                    }
                    let outs = ip_out.iter_mut().chain(cookie_out.iter_mut());
                    for (queue, out) in ip_queues.iter().chain(cookie_queues.iter()).zip(outs) {
                        queue.push_batch(out);
                    }
                }
            })
        };

        // Shard workers: one kernel route worker each, observing in queue
        // (= admission) order and forwarding tagged verdicts. A worker
        // blocks only on its own input queue and the collector sink —
        // never on another worker.
        let mut workers = Vec::with_capacity(2 * n);
        for (route, positions, queues) in [
            (Route::Ip, routes.ip(), &ip_queues),
            (Route::Cookie, routes.cookie(), &cookie_queues),
        ] {
            for queue in queues.iter() {
                let mut worker = RouteWorker::fork(self.chain(), positions, obs.is_some());
                let detector_ns = detector_ns.clone();
                let queue = queue.clone();
                let sink = collector_queue.clone();
                workers.push(std::thread::spawn(move || {
                    // Sign off however this worker exits: a worker that
                    // died without its `WorkerDone` would leave the
                    // collector (and `finish`) waiting forever, and its
                    // full input queue would block the enricher.
                    let _sign_off = OnExit(|| {
                        queue.close();
                        sink.push_block(Collected::WorkerDone);
                    });
                    let mut batch = VecDeque::new();
                    let mut out = Vec::new();
                    while queue.pop_all(&mut batch) {
                        for work in batch.drain(..) {
                            let tagged = worker.observe(work.seq, &work.record);
                            out.push(Collected::Verdicts {
                                seq: work.seq,
                                route,
                                record: work.record,
                                stamp: work.stamp,
                                tagged,
                            });
                        }
                        sink.push_batch(&mut out);
                    }
                    worker.flush(&detector_ns);
                }));
            }
        }

        // Collector: reorder buffer + in-order commit. The store is
        // built here (dense ids assigned at push, in admission order)
        // and handed back at `finish`.
        let collector = {
            let queue = collector_queue.clone();
            let latency = obs.as_ref().map(|o| o.latency.clone());
            std::thread::spawn(move || {
                let _close = OnExit(|| queue.close());
                let mut store = RequestStore::new();
                let mut pending: HashMap<u64, Pending> = HashMap::new();
                let mut batch = VecDeque::new();
                let mut next = 0u64;
                let mut done = 0usize;
                while done < 2 * n {
                    let open = queue.pop_all(&mut batch);
                    assert!(open, "only the collector closes its own queue");
                    for collected in batch.drain(..) {
                        match collected {
                            Collected::WorkerDone => done += 1,
                            Collected::Verdicts {
                                seq,
                                route,
                                record,
                                stamp,
                                tagged,
                            } => {
                                let entry = pending.entry(seq).or_default();
                                match route {
                                    Route::Ip => entry.ip = Some(tagged),
                                    Route::Cookie => entry.cookie = Some(tagged),
                                }
                                // Both routes carry a handle on the record:
                                // the second one is dropped right here, so
                                // the commit below holds the only one and
                                // takes the record without copying it.
                                entry.record.get_or_insert(record);
                                entry.stamp = entry.stamp.or(stamp);
                            }
                        }
                    }
                    while pending
                        .get(&next)
                        .is_some_and(|e| e.ip.is_some() && e.cookie.is_some())
                    {
                        let e = pending.remove(&next).expect("checked above");
                        let arc = e.record.expect("every verdict carries its record");
                        let mut record =
                            Arc::into_inner(arc).expect("both routes handed their handles back");
                        let mut tagged = e.ip.expect("checked above");
                        tagged.extend(e.cookie.expect("checked above"));
                        routes.commit(&mut record, tagged);
                        if let (Some(h), Some(stamp)) = (&latency, e.stamp) {
                            h.record(stamp.elapsed().as_nanos() as u64);
                        }
                        store.push(record);
                        next += 1;
                    }
                }
                assert!(pending.is_empty(), "every admitted request must commit");
                store
            })
        };

        FpService {
            site: Some(self),
            config,
            ingress,
            shard_queues: ip_queues.into_iter().chain(cookie_queues).collect(),
            collector_queue,
            gate,
            enricher: Some(enricher),
            workers,
            collector: Some(collector),
            obs,
            seq: 0,
            shed: 0,
        }
    }

    /// Ingest a whole request stream on `shards` worker shards: serve it
    /// with [`ServeConfig::with_shards`], submitting every request, then
    /// [`FpService::finish`].
    ///
    /// Semantics match feeding the same stream to [`HoneySite::ingest`] on
    /// a fresh site: each call forks fresh detector state from the chain
    /// prototypes (a new measurement run), so don't interleave it with
    /// sequential ingest of the same anchors. Requires an empty store.
    /// Returns the number of admitted requests.
    ///
    /// # Panics
    ///
    /// Re-raises a detector's panic, like [`FpService::finish`]; the site
    /// is lost with the run.
    pub fn ingest_stream(
        &mut self,
        requests: impl IntoIterator<Item = Request>,
        shards: usize,
    ) -> usize {
        let site = std::mem::replace(self, HoneySite::with_chain(Vec::new()));
        let mut service = site.serve(ServeConfig::with_shards(shards));
        for request in requests {
            service.submit(request);
        }
        let admitted = service.enqueued_count() as usize;
        *self = service.finish();
        admitted
    }
}

impl FpService {
    /// Submit one request. On the caller's thread, in order: the site's
    /// token check (cookie issuance), then the enqueue under the
    /// configured [`OverflowPolicy`]. Everything else happens on the
    /// service's resident workers.
    pub fn submit(&mut self, request: Request) -> SubmitOutcome {
        let site = self.site.as_mut().expect("site present until finish");
        let Some(cookie) = site.admit(&request) else {
            return SubmitOutcome::Rejected;
        };
        let item = IngressItem {
            seq: self.seq,
            ip_hash: fp_netsim::NetDb::hash_ip(request.ip),
            request,
            cookie,
            stamp: self.obs.as_ref().map(|_| Instant::now()),
        };
        match self.config.overflow {
            OverflowPolicy::Block => self.ingress.push_block(item),
            OverflowPolicy::Shed => {
                if self.ingress.try_push(item).is_err() {
                    self.shed += 1;
                    if let Some(o) = &self.obs {
                        o.shed.inc();
                    }
                    return SubmitOutcome::Shed;
                }
            }
        }
        self.seq += 1;
        if let Some(o) = &self.obs {
            o.admitted.inc();
        }
        SubmitOutcome::Enqueued
    }

    /// Release a [`ServeConfig::start_paused`] service: the enricher
    /// starts draining the ingress queue. No-op when already running.
    pub fn resume(&self) {
        self.gate.open();
    }

    /// Requests enqueued so far (admitted, not shed).
    pub fn enqueued_count(&self) -> u64 {
        self.seq
    }

    /// Requests dropped by a full ingress queue under
    /// [`OverflowPolicy::Shed`].
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Drain and stop: close the intake, join every stage, adopt the
    /// collector's store and hand the site back (rejection counts,
    /// cookie state, metrics and retention all preserved). Implicitly
    /// resumes a paused service first — queued work always completes.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any stage (in pipeline order:
    /// enricher, shard workers, collector) — e.g. a faulty detector's —
    /// once every stage has stopped.
    pub fn finish(mut self) -> HoneySite {
        let store = self
            .stop()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        if let Some(o) = &self.obs {
            o.ingress_peak.set(self.ingress.peak() as i64);
            let shard_peak = self
                .shard_queues
                .iter()
                .map(|q| q.peak())
                .max()
                .unwrap_or(0);
            o.shard_peak.set(shard_peak as i64);
            o.collector_peak.set(self.collector_queue.peak() as i64);
        }
        let mut site = self.site.take().expect("site present until finish");
        site.set_store(store);
        site
    }

    /// Open the gate, close the intake and join every stage; the
    /// collector's store, or the first stage panic in pipeline order.
    /// Every join returns: each stage closes its queues on exit (see
    /// [`OnExit`]), so a dead stage never strands a live one.
    fn stop(&mut self) -> std::thread::Result<RequestStore> {
        self.gate.open();
        self.ingress.close();
        let mut first_panic = None;
        let stages = self
            .enricher
            .take()
            .into_iter()
            .chain(self.workers.drain(..));
        for stage in stages {
            if let Err(panic) = stage.join() {
                first_panic.get_or_insert(panic);
            }
        }
        let collected = self
            .collector
            .take()
            .expect("collector present until stopped")
            .join();
        match first_panic {
            Some(panic) => Err(panic),
            None => collected,
        }
    }
}

impl Drop for FpService {
    /// Dropping without [`FpService::finish`] still shuts the stages
    /// down cleanly (open the gate, close the intake, join everything) —
    /// the recorded store, and any stage panic, are discarded.
    fn drop(&mut self) {
        if self.collector.is_some() {
            let _ = self.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_fingerprint::{
        BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile, LocaleSpec,
    };
    use fp_types::{sym, BehaviorTrace, SimTime, Splittable, TrafficSource};
    use std::net::Ipv4Addr;

    fn requests(count: u32) -> Vec<Request> {
        let mut rng = Splittable::new(9);
        (0..count)
            .map(|i| {
                let d = DeviceProfile::sample(DeviceKind::WindowsDesktop, &mut rng);
                let b = BrowserProfile::contemporary(BrowserFamily::Chrome, &mut rng);
                Request {
                    id: 0,
                    time: SimTime::from_day(0, u64::from(i)),
                    site_token: sym("tok"),
                    ip: Ipv4Addr::new(73, 9, (i % 5) as u8, 9),
                    cookie: (i % 3 != 0).then(|| u64::from(i % 7)),
                    fingerprint: Collector::collect(&d, &b, &LocaleSpec::en_us()),
                    tls: b.family.tls_facet(),
                    behavior: BehaviorTrace::silent(),
                    cadence: fp_types::BehaviorFacet::unobserved(),
                    source: TrafficSource::RealUser,
                }
            })
            .collect()
    }

    fn fresh_site() -> HoneySite {
        let mut site = HoneySite::new();
        site.register_token(sym("tok"));
        site
    }

    #[test]
    fn stream_matches_sequential_at_any_shard_count() {
        let reqs = requests(120);
        let mut sequential = fresh_site();
        sequential.ingest_all(reqs.clone());
        for shards in [1, 2, 3, 8] {
            let mut streamed = fresh_site();
            let admitted = streamed.ingest_stream(reqs.clone(), shards);
            assert_eq!(admitted, sequential.store().len());
            for (a, b) in sequential.store().iter().zip(streamed.store().iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.cookie, b.cookie, "cookie issuance must match");
                assert_eq!(
                    a.verdicts, b.verdicts,
                    "request {} at {shards} shards",
                    a.id
                );
            }
            for cookie in 0..7 {
                let a: Vec<u64> = sequential
                    .store()
                    .with_cookie(cookie)
                    .map(|r| r.id)
                    .collect();
                let b: Vec<u64> = streamed.store().with_cookie(cookie).map(|r| r.id).collect();
                assert_eq!(a, b, "cookie {cookie} at {shards} shards");
            }
        }
    }

    #[test]
    fn stream_counts_rejections() {
        let mut reqs = requests(10);
        reqs[3].site_token = sym("unknown");
        let mut site = fresh_site();
        let admitted = site.ingest_stream(reqs, 2);
        assert_eq!(admitted, 9);
        assert_eq!(site.rejected_count(), 1);
        assert_eq!(site.store().len(), 9);
    }

    #[test]
    #[should_panic(expected = "sequential ingest after ingest_stream")]
    fn sequential_ingest_after_stream_is_refused() {
        let mut site = fresh_site();
        site.ingest_stream(requests(10), 2);
        // The chain prototypes never saw those 10 requests; judging a new
        // one from their empty state would mis-score stateful detectors.
        let _ = site.ingest(requests(1).pop().unwrap());
    }

    #[test]
    fn stream_adoption_keeps_the_sites_retention_policy() {
        use fp_types::RetentionPolicy;
        let mut site = fresh_site();
        site.set_retention(RetentionPolicy::SlidingWindow { epochs: 1 });
        site.ingest_stream(requests(30), 2);
        assert_eq!(
            site.store().retention(),
            RetentionPolicy::SlidingWindow { epochs: 1 },
            "the adopted store must inherit the configured policy"
        );
        // The documented streaming recipe — seal after the call — must
        // enforce the configured window, not silently KeepAll.
        site.seal_epoch();
        assert_eq!(
            site.store().len(),
            30,
            "one sealed epoch: inside the window"
        );
        let second = site.seal_epoch();
        assert_eq!(second.records_evicted, 30, "the next seal ages it out");
        assert!(site.store().is_empty());
    }

    #[test]
    fn stream_metrics_totals_are_shard_invariant() {
        use fp_obs::MetricsRegistry;
        let reqs = requests(120);
        let mut per_shard_totals = Vec::new();
        for shards in [1, 2, 8] {
            let registry = Arc::new(MetricsRegistry::new());
            let mut site = fresh_site();
            site.set_metrics(registry.clone());
            let admitted = site.ingest_stream(reqs.clone(), shards) as u64;
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter(crate::site::REQUESTS_ADMITTED),
                Some(admitted),
                "{shards} shards"
            );
            let latency = snap
                .histogram(crate::site::ADMISSION_TO_VERDICT_NS)
                .expect("latency histogram registered");
            assert_eq!(latency.count(), admitted, "{shards} shards");
            // Every detector's timing histogram holds exactly the sampled
            // arrival indexes (1 in DETECTOR_TIMING_SAMPLE), whatever the
            // partition — the sample keys on arrival order, not on shards.
            let sampled = admitted.div_ceil(crate::site::DETECTOR_TIMING_SAMPLE);
            let detector_counts: Vec<(String, u64)> = snap
                .metrics
                .iter()
                .filter(|m| m.name.starts_with("detector_observe_ns_"))
                .map(|m| match &m.value {
                    fp_obs::Value::Histogram(h) => (m.name.clone(), h.count()),
                    other => panic!("{}: unexpected {other:?}", m.name),
                })
                .collect();
            assert_eq!(detector_counts.len(), 4, "default chain");
            for (name, count) in &detector_counts {
                assert_eq!(*count, sampled, "{name} at {shards} shards");
            }
            per_shard_totals.push((admitted, detector_counts));
        }
        assert!(
            per_shard_totals.windows(2).all(|w| w[0] == w[1]),
            "shard-invariant totals: {per_shard_totals:?}"
        );
    }
}
