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
//! Topology (one thread per stage box, one bounded queue per bracket):
//!
//! ```text
//! caller ──submit──▶ [ingress] ──▶ enricher ──▶ [worker 0..w] ──▶ workers ──▶ [collector] ──▶ collector ──▶ store
//!   │ token check                      └ one item per route, tagged (route, fork)
//!   └─ full ingress: Block (wait) or Shed (drop + count)
//! ```
//!
//! * **Threads = cores**: `shards` sets the state partition; the service
//!   runs `w = min(shards, available_parallelism)` workers, and worker `i`
//!   drains one queue for both route forks of every shard `s ≡ i (mod w)`.
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
//! * **Workers never block on each other**: each worker blocks only on
//!   its own input queue and on the collector queue (a sink that is
//!   always drained). The queue graph is acyclic, so the service cannot
//!   deadlock.
//! * **Stages stop when their input closes**: [`FpService::finish`]
//!   closes the ingress queue, and each stage drains its input and exits
//!   — the enricher closing the worker queues on its way out, `finish`
//!   closing the collector queue once the enricher and every worker are
//!   joined. Every stage closes the queues it consumes from a drop guard,
//!   on a panic too, and a push into a closed queue drops its items, so a
//!   panicking detector cannot hang `submit`, the collector, `finish` or
//!   `Drop`; `finish` re-raises the first stage panic.
//! * **Flag identity with the sequential loop**: the worker forks are
//!   the route kernel's, forked over its anchor split; routing uses the
//!   [`shard_for`] keys, the enricher forwards work in admission order
//!   (FIFO queues and order-preserving batches keep it per fork), and
//!   detectors observe records in the same pre-verdict state (`id == 0`,
//!   empty verdict set). For any anchor value the observing detector
//!   fork sees exactly the subsequence the sequential loop would have
//!   shown it — verdict-for-verdict equivalence at any shard count
//!   (property-tested in `tests/serve.rs` and `tests/streaming.rs`).
//! * **In-order commit into the site's store**: the collector holds a
//!   reorder ring and commits records strictly in admission order
//!   through the kernel's chain-order commit, into the store the site
//!   lends it at `serve` and gets back at `finish`. Dense ids, iteration
//!   order, epoch seals ([`HoneySite::set_epoch_every`]) and retention
//!   therefore match the sequential loop while the service runs.

use crate::route::{RouteWorker, TaggedVerdicts};
use crate::site::{derive_record, HoneySite};
use crate::store::{RequestStore, StoredRequest};
use fp_obs::{Counter, Gauge, Histogram};
use fp_types::{shard_for, CookieId, OverflowPolicy, Request, ServeConfig};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Registry name of the shed-request counter (requests turned away by a
/// full ingress queue under [`OverflowPolicy::Shed`]).
pub const SERVE_REQUESTS_SHED: &str = "serve_requests_shed";
/// Registry name of the ingress-queue high-water gauge (set at
/// [`FpService::finish`]).
pub const SERVE_INGRESS_DEPTH_PEAK: &str = "serve_ingress_depth_peak";
/// Registry name of the worker-queue high-water gauge (max over every
/// worker's queue; set at [`FpService::finish`]).
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

/// One enriched record on its way to a worker, tagged with the route
/// that decides it and the worker-local fork on that route.
struct ShardWork {
    seq: u64,
    route: Route,
    fork: usize,
    record: Arc<StoredRequest>,
    stamp: Option<Instant>,
}

/// Which detector route a work item rides: indexes a worker's fork pair
/// and a pending request's verdict pair.
#[derive(Clone, Copy)]
enum Route {
    Ip = 0,
    Cookie = 1,
}

/// One request's state in the collector's reorder ring.
#[derive(Default)]
struct Pending {
    record: Option<Arc<StoredRequest>>,
    /// Each route's tagged verdicts, indexed by [`Route`].
    verdicts: [Option<TaggedVerdicts>; 2],
    stamp: Option<Instant>,
}

/// The service-side instrument handles, resolved once at [`HoneySite::serve`].
struct ServeObs {
    latency: Arc<Histogram>,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    ingress_peak: Arc<Gauge>,
    worker_peak: Arc<Gauge>,
    collector_peak: Arc<Gauge>,
}

/// A continuously running honey site: admission on the caller's thread,
/// enrichment and detection on resident workers behind bounded queues.
/// Built by [`HoneySite::serve`]; torn down (and the site with its
/// recorded store handed back) by [`FpService::finish`].
pub struct FpService {
    /// The site while it serves — admission state (tokens, cookie
    /// counter, rejection count, metrics) lives here; its store is lent
    /// to the collector until `finish`. `Option` only so `finish` can
    /// move it out past the `Drop` impl.
    site: Option<HoneySite>,
    config: ServeConfig,
    ingress: Arc<BoundedQueue<IngressItem>>,
    worker_queues: Vec<Arc<BoundedQueue<ShardWork>>>,
    collector_queue: Arc<BoundedQueue<(ShardWork, TaggedVerdicts)>>,
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
    /// Requires an empty store, which the service's collector commits
    /// into — sealing epochs at the [`HoneySite::set_epoch_every`]
    /// cadence and applying the site's retention as it goes — and hands
    /// back at [`FpService::finish`]. Each call forks fresh detector
    /// state from the chain prototypes — a new measurement run.
    pub fn serve(mut self, config: ServeConfig) -> FpService {
        assert!(
            self.store().is_empty(),
            "serve() commits from the store's first id; start from an empty site"
        );
        let n = config.shards.max(1);
        let workers = n.min(std::thread::available_parallelism().map_or(1, |p| p.get()));
        let routes = self.routes().clone();
        let mut store = self.take_store();

        let obs = self.site_metrics().map(|m| ServeObs {
            latency: m.latency_ns.clone(),
            admitted: m.admitted.clone(),
            shed: m.registry.counter(SERVE_REQUESTS_SHED),
            ingress_peak: m.registry.gauge(SERVE_INGRESS_DEPTH_PEAK),
            worker_peak: m.registry.gauge(SERVE_SHARD_DEPTH_PEAK),
            collector_peak: m.registry.gauge(SERVE_COLLECTOR_DEPTH_PEAK),
        });
        let detector_ns: Vec<Arc<Histogram>> = self
            .site_metrics()
            .map(|m| m.detector_ns.clone())
            .unwrap_or_default();

        let ingress: Arc<BoundedQueue<IngressItem>> =
            Arc::new(BoundedQueue::new(config.ingress_capacity));
        let worker_queues: Vec<Arc<BoundedQueue<ShardWork>>> = (0..workers)
            .map(|_| Arc::new(BoundedQueue::new(config.shard_capacity)))
            .collect();
        let collector_queue: Arc<BoundedQueue<(ShardWork, TaggedVerdicts)>> =
            Arc::new(BoundedQueue::new(config.shard_capacity));
        let gate = Arc::new(PauseGate::new(config.start_paused));

        // Enricher: FIFO over the ingress queue, and batches that keep
        // their order, preserve admission order into every worker queue
        // and so into every fork, which is what keeps per-anchor
        // subsequences — and therefore verdicts — identical to the
        // sequential loop. Shard `s` is fork `s / workers` of worker
        // `s % workers`.
        let enricher = {
            let ingress = ingress.clone();
            let queues = worker_queues.clone();
            let gate = gate.clone();
            std::thread::spawn(move || {
                let _close = OnExit(|| {
                    ingress.close();
                    queues.iter().for_each(|q| q.close());
                });
                let mut batch = VecDeque::new();
                let mut outs: Vec<Vec<ShardWork>> = (0..workers).map(|_| Vec::new()).collect();
                gate.wait_open();
                while ingress.pop_all(&mut batch) {
                    for item in batch.drain(..) {
                        let record = Arc::new(derive_record(&item.request, item.cookie));
                        let work = |route, shard: usize, record| ShardWork {
                            seq: item.seq,
                            route,
                            fork: shard / workers,
                            record,
                            stamp: item.stamp,
                        };
                        let ip = shard_for(item.ip_hash, n);
                        let cookie = shard_for(item.cookie, n);
                        outs[ip % workers].push(work(Route::Ip, ip, record.clone()));
                        outs[cookie % workers].push(work(Route::Cookie, cookie, record));
                    }
                    for (queue, out) in queues.iter().zip(&mut outs) {
                        queue.push_batch(out);
                    }
                }
            })
        };

        // Workers: each owns the IP-route and cookie-route forks of the
        // shards it hosts, observes in queue (= admission) order and
        // forwards tagged verdicts. A worker blocks only on its own
        // input queue and the collector sink — never on another worker.
        let workers: Vec<JoinHandle<()>> = worker_queues
            .iter()
            .enumerate()
            .map(|(w, queue)| {
                let timed = obs.is_some();
                let mut forks: Vec<[RouteWorker; 2]> = (w..n)
                    .step_by(workers)
                    .map(|_| {
                        [routes.ip(), routes.cookie()]
                            .map(|route| RouteWorker::fork(self.chain(), route, timed))
                    })
                    .collect();
                let detector_ns = detector_ns.clone();
                let queue = queue.clone();
                let sink = collector_queue.clone();
                std::thread::spawn(move || {
                    let _close = OnExit(|| queue.close());
                    let mut batch = VecDeque::new();
                    let mut out = Vec::new();
                    while queue.pop_all(&mut batch) {
                        for work in batch.drain(..) {
                            let fork = &mut forks[work.fork][work.route as usize];
                            let tagged = fork.observe(work.seq, &work.record);
                            out.push((work, tagged));
                        }
                        sink.push_batch(&mut out);
                    }
                    for fork in forks.iter_mut().flatten() {
                        fork.flush(&detector_ns);
                    }
                })
            })
            .collect();

        // Collector: reorder ring + in-order commit into the site's
        // store (dense ids assigned at push, in admission order; epochs
        // sealed at the store's cadence), handed back at `finish`.
        let collector = {
            let queue = collector_queue.clone();
            let latency = obs.as_ref().map(|o| o.latency.clone());
            std::thread::spawn(move || {
                let _close = OnExit(|| queue.close());
                // Slot `i` holds admission `next + i`; requests in flight
                // upstream bound its length.
                let mut pending: VecDeque<Pending> = VecDeque::new();
                let mut batch = VecDeque::new();
                let mut next = 0u64;
                while queue.pop_all(&mut batch) {
                    for (work, tagged) in batch.drain(..) {
                        let slot = (work.seq - next) as usize;
                        if slot >= pending.len() {
                            pending.resize_with(slot + 1, Pending::default);
                        }
                        let entry = &mut pending[slot];
                        entry.verdicts[work.route as usize] = Some(tagged);
                        // Both routes carry a handle on the record: the
                        // second one is dropped right here, so the commit
                        // below holds the only one and takes the record
                        // without copying it.
                        entry.record.get_or_insert(work.record);
                        entry.stamp = work.stamp;
                    }
                    while pending
                        .front()
                        .is_some_and(|e| e.verdicts.iter().all(Option::is_some))
                    {
                        let Pending {
                            record,
                            verdicts: [ip, cookie],
                            stamp,
                        } = pending.pop_front().expect("checked above");
                        let arc = record.expect("every verdict carries its record");
                        let mut record =
                            Arc::into_inner(arc).expect("both routes handed their handles back");
                        let mut tagged = ip.expect("checked above");
                        tagged.extend(cookie.expect("checked above"));
                        routes.commit(&mut record, tagged);
                        if let (Some(h), Some(stamp)) = (&latency, stamp) {
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
            worker_queues,
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

    /// Ingest a whole request stream over `shards` state shards: serve it
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

    /// Drain and stop: close the intake, join every stage and hand the
    /// site back with its store (rejection counts, cookie state, metrics,
    /// epochs and retention all preserved). Implicitly resumes a paused
    /// service first — queued work always completes.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any stage (in pipeline order:
    /// enricher, workers, collector) — e.g. a faulty detector's — once
    /// every stage has stopped.
    pub fn finish(mut self) -> HoneySite {
        let store = self
            .stop()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        if let Some(o) = &self.obs {
            o.ingress_peak.set(self.ingress.peak() as i64);
            let worker_peak = self.worker_queues.iter().map(|q| q.peak()).max();
            o.worker_peak.set(worker_peak.unwrap_or(0) as i64);
            o.collector_peak.set(self.collector_queue.peak() as i64);
        }
        let mut site = self.site.take().expect("site present until finish");
        site.set_store(store);
        site
    }

    /// Stop every stage by closing its input, upstream first: open the
    /// gate, close the intake, join the enricher (which closes the worker
    /// queues) and the workers, then close the collector queue and join
    /// the collector. Returns the site's store, or the first stage panic
    /// in pipeline order. Every join returns: each stage also closes the
    /// queues it consumes on exit (see [`OnExit`]), so a dead stage never
    /// strands a live one.
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
        self.collector_queue.close();
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
    fn served_sites_seal_and_retain_like_the_sequential_loop() {
        use fp_types::RetentionPolicy;
        let windowed = || {
            let mut site = fresh_site();
            site.set_retention(RetentionPolicy::SlidingWindow { epochs: 2 });
            site.set_epoch_every(4);
            site
        };
        let ids = |site: &HoneySite| site.store().iter().map(|r| r.id).collect::<Vec<_>>();
        let reqs = requests(30);
        let mut sequential = windowed();
        sequential.ingest_all(reqs.clone());
        assert_eq!(sequential.store().stats().epochs_sealed, 7);
        for shards in [1, 2, 8] {
            let mut served = windowed();
            served.ingest_stream(reqs.clone(), shards);
            assert_eq!(
                served.store().stats(),
                sequential.store().stats(),
                "{shards} shards"
            );
            assert_eq!(ids(&served), ids(&sequential), "{shards} shards");
        }
    }

    #[test]
    fn the_service_runs_one_worker_per_core_at_most() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        for shards in [1, 2, 8] {
            let service = fresh_site().serve(ServeConfig::with_shards(shards));
            assert_eq!(service.workers.len(), shards.min(cores), "{shards} shards");
            service.finish();
        }
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
