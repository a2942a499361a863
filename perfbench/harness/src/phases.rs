//! The three measured phases: open-loop serving, closed-loop ingest
//! through each ingest engine, and re-mining arena rounds.
//!
//! Each phase is a stepper: one serve pass, one ingest cycle or one arena
//! round per call, so a run can interleave them and spread each phase's
//! samples over its whole length. They drive only the program's public
//! API and keep what the output checks need.

use crate::report::{quantile, quiet_median, Mark, Sample};
use crate::trace::{SpanId, Tracer};
use fp_arena::Arena;
use fp_botnet::Campaign;
use fp_honeysite::defense::member_metric_name;
use fp_honeysite::serve::{
    SERVE_COLLECTOR_DEPTH_PEAK, SERVE_INGRESS_DEPTH_PEAK, SERVE_SHARD_DEPTH_PEAK,
};
use fp_honeysite::site::ADMISSION_TO_VERDICT_NS;
use fp_honeysite::{HoneySite, RequestStore};
use fp_inconsistent_core::defense::{PACK_SWAP_NS, REMINE_COMPILE_NS, REMINE_SCAN_NS};
use fp_inconsistent_core::FpInconsistent;
use fp_netsim::blocklist::{BLOCKLIST_CHECKS, BLOCKLIST_DENIALS};
use fp_obs::{HistogramSnapshot, MetricsRegistry};
use fp_types::defense::DecisionContext;
use fp_types::runfp::RunFingerprint;
use fp_types::{sym, PackHash, Request, ServeConfig, Symbol, Verdict};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What every phase runs on.
pub struct Inputs<'a> {
    pub campaign: &'a Campaign,
    pub engine: &'a FpInconsistent,
    /// The workload's request stream, in arrival order.
    pub stream: &'a [Request],
    /// Queue sizing and shard count for every serving run.
    pub serve: ServeConfig,
}

impl Inputs<'_> {
    /// A fresh deployed site: the campaign's tokens, the default chain
    /// followed by the mined engine's detectors, metrics attached.
    pub fn site(&self) -> (HoneySite, Arc<MetricsRegistry>) {
        let mut site = fp_bench::honey_site_for(self.campaign);
        for detector in self.engine.detectors() {
            site.push_detector(detector);
        }
        let registry = Arc::new(MetricsRegistry::new());
        site.set_metrics(registry.clone());
        (site, registry)
    }

    /// The deployed chain's detector names, in chain order.
    pub fn chain(&self) -> Vec<&'static str> {
        self.site().0.chain().iter().map(|d| d.name()).collect()
    }
}

/// One record's verdicts as a bit mask over chain positions (bit `i` set
/// when detector `i` said Bot), for every record of `store` in order.
/// Fails when a record's provenance is not exactly the chain, in order.
pub fn signature(store: &RequestStore, chain: &[&str]) -> Result<Vec<u16>, String> {
    assert!(chain.len() <= 16, "the mask holds at most 16 detectors");
    let names: Vec<Symbol> = chain.iter().map(|n| sym(n)).collect();
    let mut out = Vec::with_capacity(store.len());
    for (i, record) in store.iter().enumerate() {
        let mut mask = 0u16;
        let mut k = 0;
        for (name, verdict) in record.verdicts.iter() {
            if names.get(k) != Some(&name) {
                return Err(format!("record {i}: verdict {k} is not from `{name:?}`"));
            }
            if verdict == Verdict::Bot {
                mask |= 1 << k;
            }
            k += 1;
        }
        if k != names.len() {
            return Err(format!(
                "record {i}: {k} verdicts for {} detectors",
                names.len()
            ));
        }
        out.push(mask);
    }
    Ok(out)
}

/// Records whose verdicts differ between two signatures (a length
/// difference counts every missing record).
pub fn mismatches(a: &[u16], b: &[u16]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

/// Bot verdicts per chain position.
pub fn flag_counts(signature: &[u16], detectors: usize) -> Vec<u64> {
    (0..detectors)
        .map(|k| signature.iter().filter(|m| *m & (1 << k) != 0).count() as u64)
        .collect()
}

/// Fold one pass's signature into a phase's verdict check: the first pass
/// sets the reference, every later one is compared against it.
fn fold_signature(
    reference: &mut Option<Vec<u16>>,
    mismatched: &mut u64,
    errors: &mut Vec<String>,
    what: &str,
    sig: Result<Vec<u16>, String>,
) {
    match (reference.as_ref(), sig) {
        (_, Err(e)) => errors.push(format!("{what}: {e}")),
        (None, Ok(sig)) => *reference = Some(sig),
        (Some(first), Ok(sig)) => *mismatched += mismatches(first, &sig),
    }
}

/// One open-loop pass's figures.
pub struct ServePass {
    /// Admission to committed verdict, over the pass's requests.
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    /// How late the generator submitted against its schedule.
    pub lag_p90_ms: f64,
    pub lag_p99_ms: f64,
    /// Share of the pass's CPU time the host stole.
    pub steal: f64,
}

impl ServePass {
    fn of(latency: &HistogramSnapshot, lags_ns: &[f64], mark: &Mark) -> ServePass {
        ServePass {
            p50_ms: latency.quantile(0.50) as f64 / 1e6,
            p90_ms: latency.quantile(0.90) as f64 / 1e6,
            p99_ms: latency.quantile(0.99) as f64 / 1e6,
            lag_p90_ms: quantile(lags_ns, 0.90) / 1e6,
            lag_p99_ms: quantile(lags_ns, 0.99) / 1e6,
            steal: mark.steal_share(),
        }
    }
}

/// The open-loop serving phase so far.
#[derive(Default)]
pub struct ServeOpen {
    pub passes: usize,
    pub offered: u64,
    pub committed: u64,
    /// Samples in the admission-to-verdict histograms.
    pub latency_samples: u64,
    pub per_pass: Vec<ServePass>,
    /// The first pass's verdict signature.
    pub signature: Option<Vec<u16>>,
    /// Records of later passes whose verdicts differ from the first's.
    pub mismatched: u64,
    pub errors: Vec<String>,
    /// Per-call `FpService::submit` time (traced run only).
    pub submit_ns: Vec<f64>,
    /// Ingress, shard and collector queue high-water marks, over passes.
    pub depth_peaks: [f64; 3],
}

impl ServeOpen {
    /// One per-pass figure, as the median over the quietest `share` of
    /// the passes (see [`quiet_median`]).
    pub fn quiet(&self, f: fn(&ServePass) -> f64, share: f64) -> f64 {
        let samples: Vec<Sample> = self
            .per_pass
            .iter()
            .map(|w| Sample {
                value: f(w),
                steal: w.steal,
            })
            .collect();
        quiet_median(&samples, share)
    }

    /// One open-loop pass through `HoneySite::serve`: a fresh service, the
    /// whole stream submitted from this one thread on a fixed schedule at
    /// `rate` requests per second, then drained.
    pub fn pass(&mut self, inputs: &Inputs, rate: f64, tracer: &mut Tracer, parent: SpanId) {
        let pass = tracer.open("serve_open.pass", parent);
        let chain = inputs.chain();
        let (site, registry) = inputs.site();
        let input = inputs.stream.to_vec();
        self.offered += input.len() as u64;
        let interval_ns = 1e9 / rate;
        let mut lags_ns = Vec::with_capacity(input.len());
        let mark = Mark::now();
        let mut service = site.serve(inputs.serve);
        let start = Instant::now();
        for (i, request) in input.into_iter().enumerate() {
            let due = start + Duration::from_nanos((i as f64 * interval_ns) as u64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t0 = Instant::now();
            lags_ns.push(t0.saturating_duration_since(due).as_nanos() as f64);
            service.submit(request);
            if tracer.on() {
                let t1 = Instant::now();
                self.submit_ns.push((t1 - t0).as_nanos() as f64);
                tracer.record("fp-honeysite.submit", t0, t1, pass, i as u64);
            }
        }
        let drain = tracer.open("fp-honeysite.finish", pass);
        let site = service.finish();
        tracer.close(drain, 1);
        let snap = registry.snapshot();
        let latency = snap
            .histogram(ADMISSION_TO_VERDICT_NS)
            .cloned()
            .unwrap_or_default();
        self.per_pass.push(ServePass::of(&latency, &lags_ns, &mark));
        self.latency_samples += latency.count();

        let store = site.into_store();
        self.committed += store.len() as u64;
        fold_signature(
            &mut self.signature,
            &mut self.mismatched,
            &mut self.errors,
            "serve_open",
            signature(&store, &chain),
        );
        for (peak, name) in self.depth_peaks.iter_mut().zip([
            SERVE_INGRESS_DEPTH_PEAK,
            SERVE_SHARD_DEPTH_PEAK,
            SERVE_COLLECTOR_DEPTH_PEAK,
        ]) {
            *peak = peak.max(snap.gauge(name).map_or(f64::NAN, |v| v as f64));
        }
        tracer.close(pass, inputs.stream.len() as u64);
        self.passes += 1;
    }
}

/// The three ingest engines, in the order a cycle starts from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    Sequential,
    Stream,
    Serve,
}

impl Engine {
    pub const ALL: [Engine; 3] = [Engine::Sequential, Engine::Stream, Engine::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Sequential => "ingest_all",
            Engine::Stream => "ingest_stream",
            Engine::Serve => "serve",
        }
    }
}

/// The closed-loop ingest phase so far.
#[derive(Default)]
pub struct IngestClosed {
    pub cycles: usize,
    /// Requests per second of each timed pass, indexed like [`Engine::ALL`].
    pub rps: [Vec<Sample>; 3],
    /// `FpService::finish` time of each timed serve pass.
    pub drain_ms: Vec<f64>,
    pub offered: u64,
    pub committed: u64,
    /// Records whose verdicts differ from the first pass's.
    pub mismatched: u64,
    /// The first pass's verdict signature.
    pub reference: Option<Vec<u16>>,
    pub errors: Vec<String>,
}

impl IngestClosed {
    /// One cycle: the whole stream through each engine as fast as it takes
    /// it. Each cycle starts one engine later than the last, so drift
    /// lands on every engine alike. The first cycle warms the allocator
    /// and caches; it is checked but not timed.
    pub fn cycle(&mut self, inputs: &Inputs, tracer: &mut Tracer, parent: SpanId) {
        let chain = inputs.chain();
        let timed = self.cycles > 0;
        for k in 0..Engine::ALL.len() {
            let slot = (self.cycles + k) % Engine::ALL.len();
            let engine = Engine::ALL[slot];
            let (mut site, _registry) = inputs.site();
            let input = inputs.stream.to_vec();
            let offered = input.len() as u64;
            let pass = tracer.open(format!("fp-honeysite.{}", engine.name()), parent);
            let mark = Mark::now();
            let start = Instant::now();
            let site = match engine {
                Engine::Sequential => {
                    site.ingest_all(input);
                    site
                }
                Engine::Stream => {
                    site.ingest_stream(input, inputs.serve.shards);
                    site
                }
                Engine::Serve => {
                    let mut service = site.serve(inputs.serve);
                    for request in input {
                        service.submit(request);
                    }
                    let drain = tracer.open("fp-honeysite.finish", pass);
                    let t = Instant::now();
                    let site = service.finish();
                    if timed {
                        self.drain_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    tracer.close(drain, 1);
                    site
                }
            };
            let wall = start.elapsed().as_secs_f64();
            let steal = mark.steal_share();
            tracer.close(pass, offered);
            let store = site.into_store();
            self.offered += offered;
            self.committed += store.len() as u64;
            if timed {
                self.rps[slot].push(Sample {
                    value: store.len() as f64 / wall,
                    steal,
                });
            }
            fold_signature(
                &mut self.reference,
                &mut self.mismatched,
                &mut self.errors,
                engine.name(),
                signature(&store, &chain),
            );
        }
        self.cycles += 1;
    }
}

/// One arena round as measured around `Arena::step`.
pub struct RoundRow {
    pub wall_s: f64,
    /// Share of the round's CPU time the host stole.
    pub steal: f64,
    /// Each stack member's end-of-round time, in member order.
    pub members_s: Vec<f64>,
    pub remine_scan_s: f64,
    pub remine_compile_s: f64,
    pub pack_swap_s: f64,
    pub remined: bool,
    /// The re-mine deployed a pack with a different content hash.
    pub pack_changed: bool,
    pub records_scanned: u64,
    /// `DefenseStack::decide` per record of the round's store (traced run).
    pub decide_ns: Option<f64>,
}

/// The arena phase so far.
pub struct ArenaRun {
    pub members: Vec<&'static str>,
    member_metrics: Vec<String>,
    deployed: Option<PackHash>,
    pub rounds: Vec<RoundRow>,
    /// The run fingerprint after `check_rounds` rounds.
    pub check_fingerprint: Option<RunFingerprint>,
    pub fingerprint: Option<RunFingerprint>,
    pub sent: u64,
    pub denied: u64,
    pub committed: u64,
    pub errors: Vec<String>,
    pub blocklist_checks: u64,
    pub blocklist_denials: u64,
}

impl ArenaRun {
    pub fn new(arena: &Arena) -> ArenaRun {
        let members: Vec<&'static str> = arena
            .stack()
            .members()
            .iter()
            .map(|m| m.member_name())
            .collect();
        ArenaRun {
            member_metrics: members.iter().map(|m| member_metric_name(m)).collect(),
            members,
            deployed: Some(arena.spatial_pack().hash()),
            rounds: Vec::new(),
            check_fingerprint: None,
            fingerprint: None,
            sent: 0,
            denied: 0,
            committed: 0,
            errors: Vec::new(),
            blocklist_checks: 0,
            blocklist_denials: 0,
        }
    }

    /// Play one round, timing `Arena::step` and reading its per-round
    /// registry delta.
    pub fn round(
        &mut self,
        arena: &mut Arena,
        check_rounds: u32,
        tracer: &mut Tracer,
        parent: SpanId,
    ) {
        let step = tracer.open("fp-arena.step", parent);
        let mark = Mark::now();
        let start = Instant::now();
        let result = arena.step();
        let wall_s = start.elapsed().as_secs_f64();
        let steal = mark.steal_share();
        tracer.close(step, result.store.len() as u64);

        let sent: u64 = result.outcomes.values().map(|o| o.sent).sum();
        let denied: u64 = result.outcomes.values().map(|o| o.denied).sum();
        let committed = result.store.len() as u64;
        if committed + denied != sent {
            self.errors.push(format!(
                "round {}: {sent} sent, {denied} denied, {committed} committed",
                result.round
            ));
        }
        self.sent += sent;
        self.denied += denied;
        self.committed += committed;

        let snap = &result.stats.obs.snapshot;
        let seconds = |name: &str| snap.histogram(name).map_or(0, |h| h.sum) as f64 / 1e9;
        let remined = snap
            .histogram(REMINE_SCAN_NS)
            .is_some_and(|h| h.count() > 0);
        let hash = result.stats.defense.pack_hash;
        let decide_ns = tracer.on().then(|| {
            let decide = tracer.open("fp-arena.decide", step);
            let offenses: Vec<u32> = result
                .store
                .iter()
                .map(|r| arena.blocklist().offenses(r.ip_hash))
                .collect();
            let t = Instant::now();
            for (record, prior_offenses) in result.store.iter().zip(offenses) {
                black_box(arena.stack().decide(&DecisionContext {
                    verdicts: &record.verdicts,
                    ip_hash: record.ip_hash,
                    now: record.time,
                    prior_offenses,
                }));
            }
            let ns = t.elapsed().as_nanos() as f64 / committed.max(1) as f64;
            tracer.close(decide, committed);
            ns
        });
        self.rounds.push(RoundRow {
            wall_s,
            steal,
            members_s: self.member_metrics.iter().map(|m| seconds(m)).collect(),
            remine_scan_s: seconds(REMINE_SCAN_NS),
            remine_compile_s: seconds(REMINE_COMPILE_NS),
            pack_swap_s: seconds(PACK_SWAP_NS),
            remined,
            pack_changed: remined && hash != self.deployed,
            records_scanned: result.stats.defense.records_scanned,
            decide_ns,
        });
        self.deployed = hash;
        if self.rounds.len() as u32 == check_rounds {
            self.check_fingerprint = Some(arena.run_fingerprint());
        }
    }

    /// Record the final fingerprint and the blocklist's counters.
    pub fn finish(&mut self, arena: &Arena) {
        self.fingerprint = Some(arena.run_fingerprint());
        let totals = arena.metrics().snapshot();
        self.blocklist_checks = totals.counter(BLOCKLIST_CHECKS).unwrap_or(0);
        self.blocklist_denials = totals.counter(BLOCKLIST_DENIALS).unwrap_or(0);
    }
}
