//! The continuously running serving layer — the site's one sharded
//! ingest engine.
//!
//! [`HoneySite::serve`] turns the site into an [`FpService`]: resident
//! workers behind **one bounded intake ring** that decide each request
//! as it arrives — the shape a deployed honey site actually has, and
//! the shape the always-on admission-to-verdict histogram was built to
//! measure. [`HoneySite::ingest_stream`] is a batch driver over the same
//! service: submit every request, then [`FpService::finish`].
//!
//! Topology (the caller's thread plus one thread per worker, one lock):
//!
//! ```text
//! caller        token check ─▶ Shed: full ring? drop + count ─▶ stamp, enrich, route ─▶ push
//!                                                             (Block: wait for room) ──┐
//!                                                                                      ▼
//! intake ring   front ─▶ [slot][slot][slot][slot][slot][slot] …   ≤ ingress_capacity
//!                        └─ commit window: shard_capacity ─┘
//!                           │ read unread slots, in order     ▲ deposit verdicts
//!                           ▼                                 │
//! worker i of w    observe the routes it hosts (lock released)
//!                  the deposit that completes the front commits it, and every
//!                  complete slot behind it, into the site's store
//! ```
//!
//! A served request crosses one thread hand-off: the caller's push to
//! the workers that decide it.
//!
//! * **Threads = cores**: `shards` sets the state partition; the service
//!   runs `w = min(shards, available_parallelism)` workers and no other
//!   thread. Worker `i` hosts both route forks of every shard
//!   `s ≡ i (mod w)`, as its fork `s / w`.
//! * **Admission and enrichment on the caller's thread**: `submit` runs
//!   the token check (cookie issuance), derives the stored record and
//!   routes it *before* it touches the ring — a rejected request never
//!   costs ring space or a worker's time. A caller that turns addresses
//!   away (the arena's TTL blocklist) does so before it submits.
//! * **Backpressure at one gate**: the ring, `ingress_capacity` slots
//!   deep, is the only intake. When it is full,
//!   [`OverflowPolicy::Block`] makes `submit` wait for a commit to make
//!   room (nothing dropped, latency absorbs the spike) and
//!   [`OverflowPolicy::Shed`] returns [`SubmitOutcome::Shed`] before
//!   enriching and bumps [`SERVE_REQUESTS_SHED`].
//! * **Batched reads inside a commit window**: a worker takes every slot
//!   it has not read in `[front, front + shard_capacity)` under one lock,
//!   where `front` is the oldest uncommitted request, then observes the
//!   routes it hosts with the lock released. There is no batch size and
//!   no timer: a batch is whatever has arrived — about one request under
//!   light load, up to the window under saturation. The window bounds
//!   the requests decided but not yet committed.
//! * **No deadlock by construction**: there is one lock, never held
//!   across `observe` or a wait. A worker waits only when its window
//!   holds nothing it has not read; the front slot lies inside every
//!   window, so its owners can always take it. The caller waits only for
//!   room, and commits make room.
//! * **Stopping and faults**: [`FpService::finish`] closes the ring; a
//!   worker exits once the ring is closed and it has read every slot.
//!   A worker that panics marks the ring dead from its drop guard and
//!   wakes everyone: the other workers exit, `submit` drops requests
//!   into the dead ring, `finish` re-raises the first panic and `Drop`
//!   returns.
//! * **Flag identity with the sequential loop**: the worker forks are
//!   the route kernel's, forked over its anchor split; routing uses the
//!   [`shard_for`] keys; each fork lives on one worker, which reads slots
//!   in admission order; and detectors observe records in the same
//!   pre-verdict state (`id == 0`, empty verdict set). For any anchor
//!   value the observing detector fork sees exactly the subsequence the
//!   sequential loop would have shown it — verdict-for-verdict
//!   equivalence at any shard count (property-tested in `tests/serve.rs`
//!   and `tests/streaming.rs`).
//! * **In-order commit by the worker that decides last**: each route's
//!   worker ORs its verdict bits into the slot's one mask; under the ring
//!   lock, the worker whose verdicts complete the front slot commits it
//!   and every complete slot behind it, through the kernel's chain-order
//!   commit, into the store the site lends at `serve` and gets back at
//!   `finish`. Dense ids, iteration order, epoch seals
//!   ([`HoneySite::set_epoch_every`]) and retention therefore match the
//!   sequential loop while the service runs.

use crate::route::{RouteWorker, Routes};
use crate::site::{derive_record, HoneySite};
use crate::store::{RequestStore, StoredRequest};
use fp_obs::{Counter, Gauge, Histogram, LocalHistogram};
use fp_types::{shard_for, OverflowPolicy, Request, ServeConfig};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Registry name of the shed-request counter (requests turned away by a
/// full intake ring under [`OverflowPolicy::Shed`]).
pub const SERVE_REQUESTS_SHED: &str = "serve_requests_shed";
/// Registry name of the intake ring's high-water gauge, in requests
/// (set at [`FpService::finish`]).
pub const SERVE_INGRESS_DEPTH_PEAK: &str = "serve_ingress_depth_peak";
/// Registry name of the gauge of the largest batch one worker took from
/// the ring, in requests: at most `shard_capacity`, the commit window
/// (set at [`FpService::finish`]).
pub const SERVE_SHARD_DEPTH_PEAK: &str = "serve_shard_depth_peak";
/// Registry name of the gauge of the most requests decided on one route
/// and waiting to commit: at most `shard_capacity` (set at
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
    /// The intake ring was full under [`OverflowPolicy::Shed`]: dropped,
    /// counted in [`SERVE_REQUESTS_SHED`]. The request may have consumed
    /// a cookie number (the token check runs before the ring is probed,
    /// like a real site that sets its cookie before the backend sheds the
    /// page load).
    Shed,
}

/// One admitted request in the intake ring.
struct Slot {
    record: Arc<StoredRequest>,
    /// Each route's `(worker, fork)`: the IP route, then the cookie route.
    routes: [(usize, usize); 2],
    /// The verdict mask (see [`Routes::commit`]): each route's deposit
    /// ORs its chain positions' bits in.
    bots: u64,
    /// Routes not decided yet: the slot commits at 0.
    undecided: u8,
    /// Admission stamp (the latency window opens here); only taken when
    /// a registry is attached, like the sequential loop.
    stamp: Option<Instant>,
}

/// Everything the ring's one lock guards.
struct RingState {
    /// Slot `i` holds admission `front + i`.
    slots: VecDeque<Slot>,
    /// Admission index of the oldest uncommitted request.
    front: u64,
    /// Per worker: the admission index of the next slot it reads.
    cursors: Vec<u64>,
    /// Per worker: waiting for work, so a notify is owed.
    asleep: Vec<bool>,
    /// The caller waits for room.
    caller_waits: bool,
    paused: bool,
    closed: bool,
    /// A worker died: nothing commits any more.
    dead: bool,
    /// The site's store, lent for the service's lifetime.
    store: RequestStore,
    /// Per route: requests decided on it, not yet committed.
    decided: [usize; 2],
    /// High-water marks: ring depth, batch taken, decided on one route.
    peaks: [usize; 3],
}

/// The intake ring: one lock, a condvar per worker (work to read) and
/// one for the caller (room).
struct Ring {
    state: Mutex<RingState>,
    work: Vec<Condvar>,
    room: Condvar,
    capacity: usize,
    window: u64,
}

impl Ring {
    /// The state. A lock poisoned by a panic comes back marked dead, and
    /// every holder checks `dead` before it reads anything else, so no
    /// one acts on what the panicking thread left half-updated.
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(recover)
    }

    /// Is the ring at capacity (the Shed probe)?
    fn full(&self) -> bool {
        self.lock().slots.len() >= self.capacity
    }

    /// Append one slot, waiting for room, and wake the workers that host
    /// its routes if they sleep and can read it now. A dead ring drops
    /// the slot.
    fn push(&self, slot: Slot) {
        let mut s = self.lock();
        while s.slots.len() >= self.capacity && !s.dead {
            s.caller_waits = true;
            s = wait(&self.room, s);
        }
        if s.dead {
            return;
        }
        let readable = !s.paused && (s.slots.len() as u64) < self.window;
        let wake = slot
            .routes
            .map(|(w, _)| (readable && std::mem::take(&mut s.asleep[w])).then_some(w));
        s.slots.push_back(slot);
        s.peaks[0] = s.peaks[0].max(s.slots.len());
        drop(s);
        for w in wake.into_iter().flatten() {
            self.work[w].notify_one();
        }
    }

    /// Apply `set` to the state and wake everyone: `resume`, `finish` and
    /// a dying worker.
    fn wake_all(&self, set: impl FnOnce(&mut RingState)) {
        let mut s = self.lock();
        set(&mut s);
        s.asleep.fill(false);
        drop(s);
        self.work.iter().for_each(Condvar::notify_one);
        self.room.notify_one();
    }
}

/// Wait on `cv`; a poisoned lock comes back marked dead (see
/// [`Ring::lock`]).
fn wait<'a>(cv: &Condvar, s: MutexGuard<'a, RingState>) -> MutexGuard<'a, RingState> {
    cv.wait(s).unwrap_or_else(recover)
}

fn recover(poisoned: PoisonError<MutexGuard<'_, RingState>>) -> MutexGuard<'_, RingState> {
    let mut s = poisoned.into_inner();
    s.dead = true;
    s
}

/// A worker's drop guard: if the worker is unwinding from a panic, mark
/// the ring dead and wake everyone, so nobody waits on it.
struct DeadOnPanic(Arc<Ring>);

impl Drop for DeadOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.wake_all(|s| s.dead = true);
        }
    }
}

/// One worker: the forks of the shards it hosts, and what it has
/// recorded since it last flushed into the shared histograms.
struct Worker {
    me: usize,
    ring: Arc<Ring>,
    routes: Routes,
    /// Fork `k` holds the IP-route and cookie-route forks of shard
    /// `me + k * workers`.
    forks: Vec<[RouteWorker; 2]>,
    latency: Option<Arc<Histogram>>,
    detector_ns: Vec<Arc<Histogram>>,
    /// Admission-to-verdict samples of the requests this worker
    /// committed, merged into `latency` when it idles and when it exits.
    local: LocalHistogram,
    unflushed: bool,
}

impl Worker {
    fn run(mut self) {
        let ring = self.ring.clone();
        let window = ring.window;
        let mut batch: Vec<(u64, usize, usize, Arc<StoredRequest>)> = Vec::new();
        let mut decided: Vec<(u64, usize, u64)> = Vec::new();
        let mut rouse: Vec<usize> = Vec::new();
        let mut s = ring.lock();
        loop {
            if s.dead {
                return;
            }
            let (front, len) = (s.front, s.slots.len() as u64);
            let start = s.cursors[self.me].max(front);
            let end = front + len.min(window);
            if s.paused || start >= end {
                if s.closed && start >= front + len {
                    break;
                }
                if self.unflushed {
                    drop(s);
                    self.flush();
                    s = ring.lock();
                    continue;
                }
                s.asleep[self.me] = true;
                s = wait(&ring.work[self.me], s);
                s.asleep[self.me] = false;
                continue;
            }

            // Take every unread slot in the window, in admission order.
            for (seq, slot) in (start..end).zip(s.slots.range((start - front) as usize..)) {
                for (route, &(worker, fork)) in slot.routes.iter().enumerate() {
                    if worker == self.me {
                        batch.push((seq, route, fork, slot.record.clone()));
                    }
                }
            }
            s.cursors[self.me] = end;
            s.peaks[1] = s.peaks[1].max((end - start) as usize);
            drop(s);

            // Observe with the lock released; each record handle drops
            // here, so the committer holds the only one.
            for (seq, route, fork, record) in batch.drain(..) {
                decided.push((seq, route, self.forks[fork][route].observe(seq, &record)));
            }
            self.unflushed |= self.latency.is_some();

            s = ring.lock();
            if s.dead {
                return;
            }
            let front = s.front;
            for (seq, route, bots) in decided.drain(..) {
                let slot = &mut s.slots[(seq - front) as usize];
                slot.bots |= bots;
                slot.undecided -= 1;
                s.decided[route] += 1;
                s.peaks[2] = s.peaks[2].max(s.decided[route]);
            }
            self.commit(&mut s);

            // Commits made room and moved the window: wake the caller if
            // it waits, and any sleeping worker the window now reaches.
            if s.front > front {
                let caller = std::mem::take(&mut s.caller_waits);
                if s.front + s.slots.len() as u64 > front + window {
                    for (w, asleep) in s.asleep.iter_mut().enumerate() {
                        if std::mem::take(asleep) {
                            rouse.push(w);
                        }
                    }
                }
                if caller || !rouse.is_empty() {
                    drop(s);
                    if caller {
                        ring.room.notify_one();
                    }
                    for w in rouse.drain(..) {
                        ring.work[w].notify_one();
                    }
                    s = ring.lock();
                }
            }
        }
        drop(s);
        self.flush();
    }

    /// Commit every complete slot at the front, in admission order.
    fn commit(&mut self, s: &mut RingState) {
        let mut now = None;
        while s.slots.front().is_some_and(|slot| slot.undecided == 0) {
            let slot = s.slots.pop_front().expect("checked above");
            let mut record = Arc::into_inner(slot.record)
                .expect("both routes dropped their handles before deciding");
            self.routes.commit(&mut record, slot.bots);
            if let Some(stamp) = slot.stamp {
                let now = *now.get_or_insert_with(Instant::now);
                self.local
                    .record(now.duration_since(stamp).as_nanos() as u64);
            }
            s.store.push(record);
            s.front += 1;
            s.decided.iter_mut().for_each(|d| *d -= 1);
        }
    }

    /// Fold this worker's latency samples and detector timings into the
    /// shared histograms.
    fn flush(&mut self) {
        if let Some(latency) = &self.latency {
            latency.merge_local(&std::mem::take(&mut self.local));
        }
        for fork in self.forks.iter_mut().flatten() {
            fork.flush(&self.detector_ns);
        }
        self.unflushed = false;
    }
}

/// The service-side instrument handles, resolved once at [`HoneySite::serve`].
struct ServeObs {
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    /// Ring depth, batch taken, decided on one route: the three peaks.
    peaks: [Arc<Gauge>; 3],
}

/// A continuously running honey site: admission and enrichment on the
/// caller's thread, detection on resident workers behind one bounded
/// intake ring. Built by [`HoneySite::serve`]; torn down (and the site
/// with its recorded store handed back) by [`FpService::finish`].
pub struct FpService {
    /// The site while it serves — admission state (tokens, cookie
    /// counter, rejection count, metrics) lives here; its store is lent
    /// to the ring until `finish`. `Option` only so `finish` can move it
    /// out past the `Drop` impl.
    site: Option<HoneySite>,
    shards: usize,
    overflow: OverflowPolicy,
    ring: Arc<Ring>,
    /// Empty once stopped.
    workers: Vec<JoinHandle<()>>,
    obs: Option<ServeObs>,
    seq: u64,
    shed: u64,
}

impl HoneySite {
    /// Start serving: move the site behind a running [`FpService`].
    /// Requires an empty store, which the service's workers commit into —
    /// sealing epochs at the [`HoneySite::set_epoch_every`] cadence and
    /// applying the site's retention as they go — and which
    /// [`FpService::finish`] hands back. Each call forks fresh detector
    /// state from the chain prototypes — a new measurement run.
    pub fn serve(mut self, config: ServeConfig) -> FpService {
        assert!(
            self.store().is_empty(),
            "serve() commits from the store's first id; start from an empty site"
        );
        let n = config.shards.max(1);
        let workers = n.min(std::thread::available_parallelism().map_or(1, |p| p.get()));
        let obs = self.site_metrics().map(|m| ServeObs {
            admitted: m.admitted.clone(),
            shed: m.registry.counter(SERVE_REQUESTS_SHED),
            peaks: [
                SERVE_INGRESS_DEPTH_PEAK,
                SERVE_SHARD_DEPTH_PEAK,
                SERVE_COLLECTOR_DEPTH_PEAK,
            ]
            .map(|name| m.registry.gauge(name)),
        });
        let ring = Arc::new(Ring {
            state: Mutex::new(RingState {
                slots: VecDeque::new(),
                front: 0,
                cursors: vec![0; workers],
                asleep: vec![false; workers],
                caller_waits: false,
                paused: config.start_paused,
                closed: false,
                dead: false,
                store: self.take_store(),
                decided: [0; 2],
                peaks: [0; 3],
            }),
            work: (0..workers).map(|_| Condvar::new()).collect(),
            room: Condvar::new(),
            capacity: config.ingress_capacity.max(1),
            window: config.shard_capacity.max(1) as u64,
        });

        let timed = obs.is_some();
        let handles = (0..workers)
            .map(|me| {
                let worker = Worker {
                    me,
                    ring: ring.clone(),
                    routes: self.routes().clone(),
                    forks: (me..n)
                        .step_by(workers)
                        .map(|_| {
                            [self.routes().ip(), self.routes().cookie()]
                                .map(|route| RouteWorker::fork(self.chain(), route, timed))
                        })
                        .collect(),
                    latency: self.site_metrics().map(|m| m.latency_ns.clone()),
                    detector_ns: self
                        .site_metrics()
                        .map(|m| m.detector_ns.clone())
                        .unwrap_or_default(),
                    local: LocalHistogram::new(),
                    unflushed: false,
                };
                std::thread::spawn(move || {
                    let _guard = DeadOnPanic(worker.ring.clone());
                    worker.run();
                })
            })
            .collect();

        FpService {
            site: Some(self),
            shards: n,
            overflow: config.overflow,
            ring,
            workers: handles,
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
    /// token check (cookie issuance); under [`OverflowPolicy::Shed`], the
    /// full-ring probe; enrichment and routing; then the push, which
    /// under [`OverflowPolicy::Block`] waits for room. Detection and the
    /// commit happen on the service's resident workers.
    pub fn submit(&mut self, request: Request) -> SubmitOutcome {
        let site = self.site.as_mut().expect("site present until finish");
        let Some(cookie) = site.admit(&request) else {
            return SubmitOutcome::Rejected;
        };
        if self.overflow == OverflowPolicy::Shed && self.ring.full() {
            self.shed += 1;
            if let Some(o) = &self.obs {
                o.shed.inc();
            }
            return SubmitOutcome::Shed;
        }
        let stamp = self.obs.as_ref().map(|_| Instant::now());
        let record = Arc::new(derive_record(&request, cookie));
        // Shard `s` is fork `s / w` of worker `s % w`.
        let w = self.workers.len();
        let route = |key| {
            let shard = shard_for(key, self.shards);
            (shard % w, shard / w)
        };
        let routes = [route(record.ip_hash), route(cookie)];
        self.ring.push(Slot {
            record,
            routes,
            bots: 0,
            undecided: 2,
            stamp,
        });
        self.seq += 1;
        if let Some(o) = &self.obs {
            o.admitted.inc();
        }
        SubmitOutcome::Enqueued
    }

    /// Release a [`ServeConfig::start_paused`] service: the workers start
    /// reading the ring. No-op when already running.
    pub fn resume(&self) {
        self.ring.wake_all(|s| s.paused = false);
    }

    /// Requests enqueued so far (admitted, not shed).
    pub fn enqueued_count(&self) -> u64 {
        self.seq
    }

    /// Requests dropped by a full intake ring under
    /// [`OverflowPolicy::Shed`].
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Drain and stop: close the ring, join every worker and hand the
    /// site back with its store (rejection counts, cookie state, metrics,
    /// epochs and retention all preserved). Implicitly resumes a paused
    /// service first — queued work always completes.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic — e.g. a faulty detector's — once
    /// every worker has stopped.
    pub fn finish(mut self) -> HoneySite {
        if let Err(panic) = self.stop() {
            std::panic::resume_unwind(panic);
        }
        let mut s = self.ring.lock();
        assert!(s.slots.is_empty(), "every admitted request must commit");
        if let Some(o) = &self.obs {
            for (gauge, peak) in o.peaks.iter().zip(s.peaks) {
                gauge.set(peak as i64);
            }
        }
        let store = std::mem::take(&mut s.store);
        drop(s);
        let mut site = self.site.take().expect("site present until finish");
        site.set_store(store);
        site
    }

    /// Close the ring (resuming it if paused), wake every worker and join
    /// them all. Returns the first worker panic, in worker order. Every
    /// join returns: a live worker drains what it can read and exits, and
    /// a dying one marks the ring dead, which stops the rest.
    fn stop(&mut self) -> std::thread::Result<()> {
        self.ring.wake_all(|s| (s.paused, s.closed) = (false, true));
        let mut first_panic = Ok(());
        for worker in self.workers.drain(..) {
            if let Err(panic) = worker.join() {
                if first_panic.is_ok() {
                    first_panic = Err(panic);
                }
            }
        }
        first_panic
    }
}

impl Drop for FpService {
    /// Dropping without [`FpService::finish`] still shuts the workers
    /// down cleanly (close the ring, join everything) — the recorded
    /// store, and any worker panic, are discarded.
    fn drop(&mut self) {
        if !self.workers.is_empty() {
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
