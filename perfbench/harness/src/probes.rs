//! Per-layer probes for the traced run: each times one layer's public
//! function over the workload's whole stream, from outside the program,
//! and reports nanoseconds per call (the median over `reps` passes).

use crate::phases::Inputs;
use crate::report::median;
use crate::trace::{SpanId, Tracer};
use fp_honeysite::{HoneySite, RequestStore, StoredRequest};
use fp_netsim::NetDb;
use fp_obs::MetricsRegistry;
use fp_types::ServiceId;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub struct Probes {
    /// `NetDb::lookup` per request.
    pub lookup_ns: f64,
    /// `HoneySite::ingest` with an empty detector chain: admission,
    /// enrichment and the store push.
    pub enrich_ns: f64,
    /// `HoneySite::ingest` with the full chain.
    pub ingest_ns: f64,
    /// (enrich + the sum of every detector's observe) / full ingest,
    /// median over reps.
    pub stage_sum: f64,
    /// `RequestStore::push` per enriched record.
    pub store_push_ns: f64,
    /// A forked `Detector::observe` per record, in arrival order, per
    /// detector in chain order.
    pub observe_ns: Vec<(&'static str, f64)>,
    /// `RulePack::matches` per enriched record.
    pub pack_match_ns: f64,
}

/// Time `pass` (which makes `calls` calls) `reps` times under one span
/// name; nanoseconds per call, median over the passes.
fn per_call(
    tracer: &mut Tracer,
    parent: SpanId,
    name: String,
    reps: usize,
    calls: usize,
    mut pass: impl FnMut(),
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let span = tracer.open(name.clone(), parent);
            let start = Instant::now();
            pass();
            let ns = start.elapsed().as_nanos() as f64 / calls.max(1) as f64;
            tracer.close(span, calls as u64);
            ns
        })
        .collect();
    median(&times)
}

/// A site with the campaign's tokens, metrics attached and no detectors.
fn empty_chain_site(inputs: &Inputs) -> HoneySite {
    let campaign = inputs.campaign;
    let mut site = HoneySite::with_chain(Vec::new());
    for id in ServiceId::all() {
        site.register_token(campaign.token_of(id));
    }
    site.register_token(campaign.real_user_token());
    site.register_token(campaign.ai_agent_token());
    site.register_token(campaign.tls_laggard_token());
    site.set_metrics(Arc::new(MetricsRegistry::new()));
    site
}

pub fn run(inputs: &Inputs, reps: usize, tracer: &mut Tracer, parent: SpanId) -> Probes {
    let span = tracer.open("layer_probes", parent);
    let stream = inputs.stream;
    let n = stream.len();

    let lookup_ns = per_call(tracer, span, "fp-netsim.lookup".into(), reps, n, || {
        for request in stream {
            black_box(NetDb::lookup(black_box(request.ip)));
        }
    });

    // Enrichment alone, the full chain and every detector on its own,
    // back to back within each rep, so a slow stretch of the host lands on
    // one rep's parts and whole alike; the stage sum is taken per rep.
    let (site, _registry) = inputs.site();
    let chain = site.chain();
    let mut enrich = Vec::with_capacity(reps);
    let mut ingest = Vec::with_capacity(reps);
    let mut observe: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); chain.len()];
    let mut stage_sums = Vec::with_capacity(reps);
    let mut records: Vec<StoredRequest> = Vec::new();
    for _ in 0..reps {
        let mut site = empty_chain_site(inputs);
        let mut input = Some(stream.to_vec());
        let enrich_ns = per_call(
            tracer,
            span,
            "fp-honeysite.ingest[empty chain]".into(),
            1,
            n,
            || site.ingest_all(input.take().expect("one pass")),
        );
        // The records as a detector sees them: enriched, no verdicts, id 0.
        records = site
            .into_store()
            .iter()
            .cloned()
            .map(|mut r| {
                r.id = 0;
                r
            })
            .collect();
        let (mut site, _registry) = inputs.site();
        let mut input = Some(stream.to_vec());
        let ingest_ns = per_call(tracer, span, "fp-honeysite.ingest".into(), 1, n, || {
            site.ingest_all(input.take().expect("one pass"))
        });
        let mut parts = enrich_ns;
        for (prototype, times) in chain.iter().zip(&mut observe) {
            let ns = per_call(
                tracer,
                span,
                format!("detect.{}.observe", prototype.name()),
                1,
                records.len(),
                || {
                    let mut detector = prototype.fork();
                    for record in &records {
                        black_box(detector.observe(record));
                    }
                },
            );
            parts += ns;
            times.push(ns);
        }
        enrich.push(enrich_ns);
        ingest.push(ingest_ns);
        stage_sums.push(parts / ingest_ns);
    }
    let m = records.len();

    let mut pushes = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut batch = Some(records.clone());
        let mut store = RequestStore::new();
        pushes.push(per_call(
            tracer,
            span,
            "fp-honeysite.store_push".into(),
            1,
            m,
            || {
                for record in batch.take().expect("one pass") {
                    store.push(record);
                }
            },
        ));
    }

    let pack = inputs.engine.pack();
    let pack_match_ns = per_call(tracer, span, "core.pack_match".into(), reps, m, || {
        for record in &records {
            black_box(pack.matches(record));
        }
    });
    tracer.close(span, n as u64);

    Probes {
        lookup_ns,
        enrich_ns: median(&enrich),
        ingest_ns: median(&ingest),
        stage_sum: median(&stage_sums),
        store_push_ns: median(&pushes),
        observe_ns: chain
            .iter()
            .zip(&observe)
            .map(|(d, times)| (d.name(), median(times)))
            .collect(),
        pack_match_ns,
    }
}
