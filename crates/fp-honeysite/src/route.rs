//! The route kernel: the one place the detector chain runs.
//!
//! Both ingest engines — the sequential [`HoneySite::ingest`] loop and
//! the resident [`HoneySite::serve`] (which [`HoneySite::ingest_stream`]
//! drives in batch) — decide a request through the same three parts,
//! and none of the parts knows which engine drives it:
//!
//! * [`Routes`] — the chain split by state anchor. Stateless and per-IP
//!   detectors ride the *IP route*, per-cookie detectors the *cookie
//!   route*, so each request is decided exactly once per detector. The
//!   provenance names are interned here, once per detector, not once per
//!   request.
//! * [`RouteWorker`] — one shard's share of a route: it owns its
//!   detectors and its private timing histograms, observes records in the
//!   order it is handed them, and runs the sampled chained-stamp timing
//!   step (see [`DETECTOR_TIMING_SAMPLE`]). The sharded engine forks one
//!   per shard and route, and each of its threads hosts the forks of
//!   several shards; the sequential engine is one worker over the whole
//!   chain — one shard on which both routes coincide.
//! * [`Routes::commit`] — a request's verdicts as one bitmask, bit `i`
//!   set when chain position `i` said Bot: each route's worker sets its
//!   own positions' bits, and the commit records every position in chain
//!   order under its interned name.
//!
//! [`HoneySite::ingest`]: crate::HoneySite::ingest
//! [`HoneySite::ingest_stream`]: crate::HoneySite::ingest_stream
//! [`HoneySite::serve`]: crate::HoneySite::serve

use crate::site::DETECTOR_TIMING_SAMPLE;
use crate::store::StoredRequest;
use fp_obs::{Histogram, LocalHistogram};
use fp_types::detect::{Detector, StateScope, Verdict};
use fp_types::{sym, Symbol};
use std::sync::Arc;
use std::time::Instant;

/// The longest chain: one verdict bit per chain position in a `u64`.
const MAX_CHAIN: usize = u64::BITS as usize;

/// Bit `position` of a verdict mask: set when `verdict` is Bot.
fn bot_bit(position: usize, verdict: Verdict) -> u64 {
    u64::from(verdict.is_bot()) << position
}

/// The chain split by state anchor, with each detector's provenance name
/// interned once.
#[derive(Clone, Default)]
pub(crate) struct Routes {
    /// Interned provenance name per chain position.
    names: Vec<Symbol>,
    /// Chain positions on the IP route (stateless and per-IP), ascending.
    ip: Vec<usize>,
    /// Chain positions on the cookie route (per-cookie), ascending.
    cookie: Vec<usize>,
}

impl Routes {
    /// Split a whole chain.
    pub(crate) fn new(chain: &[Box<dyn Detector>]) -> Routes {
        let mut routes = Routes::default();
        for detector in chain {
            routes.push(detector.as_ref());
        }
        routes
    }

    /// Route one more detector, appended at the end of the chain.
    ///
    /// # Panics
    ///
    /// On a 65th detector: its verdict bit would not fit the mask.
    pub(crate) fn push(&mut self, detector: &dyn Detector) {
        let position = self.names.len();
        assert!(
            position < MAX_CHAIN,
            "a detector chain holds at most {MAX_CHAIN} detectors, one verdict bit each"
        );
        self.names.push(sym(detector.name()));
        match detector.scope() {
            StateScope::PerCookie => self.cookie.push(position),
            StateScope::Stateless | StateScope::PerIp => self.ip.push(position),
        }
    }

    /// Chain positions on the IP route.
    pub(crate) fn ip(&self) -> &[usize] {
        &self.ip
    }

    /// Chain positions on the cookie route.
    pub(crate) fn cookie(&self) -> &[usize] {
        &self.cookie
    }

    /// Record one request's verdicts in chain order, so provenance order
    /// never depends on the engine or the shard count. Bit `i` of `bots`
    /// is set when the detector at chain position `i` said Bot — the OR
    /// of every route's [`RouteWorker::observe`] mask.
    pub(crate) fn commit(&self, record: &mut StoredRequest, bots: u64) {
        record.verdicts.reserve(self.names.len());
        for (position, &name) in self.names.iter().enumerate() {
            let verdict = Verdict::from_flag((bots >> position) & 1 == 1);
            record.verdicts.record(name, verdict);
        }
    }
}

/// One shard's share of a route: the detectors it owns (with their chain
/// positions) and one private timing histogram per detector, folded into
/// the shared registry histograms at [`RouteWorker::flush`].
pub(crate) struct RouteWorker {
    /// Chain position of each detector, ascending.
    positions: Vec<usize>,
    /// The detectors, parallel to `positions`.
    detectors: Vec<Box<dyn Detector>>,
    /// Private timing histograms, parallel to `detectors`; empty when no
    /// registry is attached (no clock reads at all).
    timings: Vec<LocalHistogram>,
    /// A sampled step has recorded since the last flush.
    unflushed: bool,
}

impl RouteWorker {
    /// A worker running `detectors` themselves as chain positions `0..` —
    /// the whole chain on one shard (the sequential engine).
    pub(crate) fn new(detectors: Vec<Box<dyn Detector>>) -> RouteWorker {
        RouteWorker {
            positions: (0..detectors.len()).collect(),
            detectors,
            timings: Vec::new(),
            unflushed: false,
        }
    }

    /// A fresh-state worker for one shard of one route: a fork of each
    /// routed chain prototype, timed when `timed`.
    pub(crate) fn fork(chain: &[Box<dyn Detector>], route: &[usize], timed: bool) -> RouteWorker {
        let mut worker = RouteWorker {
            positions: route.to_vec(),
            detectors: route.iter().map(|&i| chain[i].fork()).collect(),
            timings: Vec::new(),
            unflushed: false,
        };
        worker.set_timed(timed);
        worker
    }

    /// The detectors, in chain order.
    pub(crate) fn detectors(&self) -> &[Box<dyn Detector>] {
        &self.detectors
    }

    /// Append a detector at the next chain position (whole-chain workers
    /// only, whose positions are `0..len`).
    pub(crate) fn push(&mut self, detector: Box<dyn Detector>) {
        self.positions.push(self.detectors.len());
        self.detectors.push(detector);
        if !self.timings.is_empty() {
            self.timings.push(LocalHistogram::new());
        }
    }

    /// Switch the sampled timing step on or off.
    pub(crate) fn set_timed(&mut self, timed: bool) {
        let len = if timed { self.detectors.len() } else { 0 };
        self.timings = vec![LocalHistogram::new(); len];
        self.unflushed = false;
    }

    /// Run every detector over one record, in chain order, and return its
    /// verdicts as a mask: bit `i` set when chain position `i` said Bot.
    /// `seq` is the request's arrival index among admitted requests: 1 in
    /// [`DETECTOR_TIMING_SAMPLE`] of them is timed with chained stamps —
    /// one clock read per detector, the gap between consecutive stamps is
    /// that detector's `observe()` time. Keying on the arrival index makes
    /// the sampled set, and so every timing histogram's count,
    /// deterministic and shard-count-invariant.
    pub(crate) fn observe(&mut self, seq: u64, record: &StoredRequest) -> u64 {
        let detectors = self.positions.iter().zip(&mut self.detectors);
        if self.timings.is_empty() || !seq.is_multiple_of(DETECTOR_TIMING_SAMPLE) {
            return detectors.fold(0, |bots, (&i, d)| bots | bot_bit(i, d.observe(record)));
        }
        self.unflushed = true;
        let mut last = Instant::now();
        detectors
            .zip(&mut self.timings)
            .fold(0, |bots, ((&i, d), timing)| {
                let verdict = d.observe(record);
                let now = Instant::now();
                timing.record((now - last).as_nanos() as u64);
                last = now;
                bots | bot_bit(i, verdict)
            })
    }

    /// Fold the private timings into the shared histograms (indexed by
    /// chain position) and start the private ones afresh. Free when
    /// nothing was sampled since the last flush.
    pub(crate) fn flush(&mut self, shared: &[Arc<Histogram>]) {
        if !std::mem::take(&mut self.unflushed) {
            return;
        }
        for (&i, timing) in self.positions.iter().zip(&mut self.timings) {
            shared[i].merge_local(timing);
            *timing = LocalHistogram::new();
        }
    }
}
