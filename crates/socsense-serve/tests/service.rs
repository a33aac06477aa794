//! Concurrency tests: determinism under concurrent querying, and
//! graceful shutdown while clients are busy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use socsense_core::{EmConfig, StreamingEstimator};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_serve::{QueryService, ServeConfig, ServeError, ServeStats};

const N: u32 = 10;
const M: u32 = 20;

/// A reliable/unreliable two-camp world streamed in batches (the same
/// construction the core streaming tests use).
fn stream_batches(batches: usize, per_batch: usize, seed: u64) -> Vec<Vec<TimedClaim>> {
    let truth: Vec<bool> = (0..M).map(|j| j < 12).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0u64;
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    let s = rng.gen_range(0..N);
                    let honest = s < 8;
                    let j = loop {
                        let j = rng.gen_range(0..M);
                        if truth[j as usize] == honest {
                            break j;
                        }
                    };
                    t += 1;
                    TimedClaim::new(s, j, t)
                })
                .collect()
        })
        .collect()
}

fn bits(posterior: &[f64]) -> Vec<u64> {
    posterior.iter().map(|p| p.to_bits()).collect()
}

/// Acceptance criterion: ≥4 client threads querying one service while it
/// ingests produce posteriors byte-identical to a serial replay of the
/// same ingest sequence.
#[test]
fn concurrent_queries_never_perturb_the_posterior() {
    let batches = stream_batches(5, 30, 31);

    // Serial baseline: the raw streaming estimator replays the same
    // batches with one refit per batch — exactly the trajectory the
    // service walks, refitting on every ingest.
    let mut est =
        StreamingEstimator::new(N, M, FollowerGraph::new(N), EmConfig::default()).unwrap();
    let mut serial = Vec::new();
    for batch in &batches {
        est.ingest(batch).unwrap();
        serial = est.estimate().unwrap().posterior;
    }

    let svc = QueryService::spawn(N, M, FollowerGraph::new(N), ServeConfig::default()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let queriers: Vec<_> = (0..4)
        .map(|q| {
            let client = svc.handle();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Interleave every query kind; an in-range read never
                    // fails, not even before the first ingest.
                    let r: Result<(), ServeError> = match served % 4 {
                        0 => client.posterior(q as u32 % M).map(drop),
                        1 => client.posteriors().map(drop),
                        2 => client.top_sources(3).map(drop),
                        _ => client.stats().map(drop),
                    };
                    if let Err(e) = r {
                        panic!("unexpected client error: {e}");
                    }
                    served += 1;
                }
                served
            })
        })
        .collect();

    let client = svc.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    let concurrent = client.posteriors().unwrap();
    stop.store(true, Ordering::Relaxed);
    let total_queries: u64 = queriers.into_iter().map(|q| q.join().unwrap()).sum();
    assert!(total_queries > 0, "queriers actually ran");

    assert_eq!(
        bits(&serial),
        bits(&concurrent),
        "concurrent querying must not change a single bit of the posterior"
    );

    let stats = svc.shutdown().unwrap();
    assert_eq!(stats.chain_refits, batches.len() as u64);
    assert_eq!(stats.total_claims, batches.len() * 30);
}

/// Refit health on a sequential default-config workload: every batch
/// advances the chain once, every chain refit after the first
/// warm-starts from the previous `θ̂`, none fails, and reads are
/// answered from the chain fit without refitting.
#[test]
fn sequential_ingest_warm_starts_and_reads_never_refit() {
    let batches = stream_batches(5, 30, 2016);
    let svc = QueryService::spawn(N, M, FollowerGraph::new(N), ServeConfig::default()).unwrap();
    let client = svc.handle();
    let acks: Vec<_> = batches.iter().map(|b| client.ingest(b.clone())).collect();
    let after_ingest = client.stats().unwrap();
    assert_eq!(after_ingest.failed_refits, 0, "acks: {acks:?}");
    assert_eq!(after_ingest.chain_refits, 5);
    assert_eq!(after_ingest.warm_refits, 4, "only the first refit is cold");
    assert!(acks.into_iter().all(|ack| ack.is_ok()));

    for j in 0..M {
        client.posterior(j).unwrap();
    }
    client.posteriors().unwrap();
    let after_reads = svc.shutdown().unwrap();
    let refits = |s: &ServeStats| {
        (
            s.chain_refits,
            s.warm_refits,
            s.failed_refits,
            s.delta_refits,
            s.fallback_refits,
        )
    };
    assert_eq!(
        refits(&after_ingest),
        refits(&after_reads),
        "cached reads must not refit"
    );
}

/// Two ingesters race each other and two readers: the service applies
/// the batches in some order, each ack's `total_claims` says which, and
/// a serial replay of the batches in that order lands on the same bits.
/// Readers never move the chain.
#[test]
fn interleaved_multi_client_ingest_matches_serial_replay() {
    let batches = stream_batches(6, 20, 77);
    let svc = QueryService::spawn(N, M, FollowerGraph::new(N), ServeConfig::default()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let queriers: Vec<_> = (0..2)
        .map(|_| {
            let client = svc.handle();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Err(e) = client.posteriors() {
                        panic!("unexpected client error: {e}");
                    }
                }
            })
        })
        .collect();
    let ingesters: Vec<_> = [0usize, 1]
        .into_iter()
        .map(|half| {
            let client = svc.handle();
            let mine: Vec<Vec<TimedClaim>> =
                batches.iter().skip(half).step_by(2).cloned().collect();
            std::thread::spawn(move || {
                mine.into_iter()
                    .map(|batch| (client.ingest(batch.clone()).unwrap().total_claims, batch))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut applied: Vec<(usize, Vec<TimedClaim>)> = ingesters
        .into_iter()
        .flat_map(|i| i.join().unwrap())
        .collect();
    let concurrent = svc.handle().posteriors().unwrap();
    stop.store(true, Ordering::Relaxed);
    for q in queriers {
        q.join().unwrap();
    }
    svc.shutdown().unwrap();

    // Every batch holds 20 claims, so the acks number them 20, 40, ….
    applied.sort_by_key(|&(total, _)| total);
    let totals: Vec<usize> = applied.iter().map(|&(total, _)| total).collect();
    assert_eq!(totals, (1..=6).map(|k| 20 * k).collect::<Vec<_>>());
    let svc = QueryService::spawn(N, M, FollowerGraph::new(N), ServeConfig::default()).unwrap();
    let client = svc.handle();
    for (_, batch) in applied {
        client.ingest(batch).unwrap();
    }
    let serial = client.posteriors().unwrap();
    svc.shutdown().unwrap();

    assert_eq!(
        bits(&serial),
        bits(&concurrent),
        "the final posterior is the serial replay's in ack order"
    );
}

/// Shutdown while clients are mid-flood: queued requests drain, late
/// requests get `Closed`, everything joins cleanly.
#[test]
fn shutdown_while_busy_joins_cleanly() {
    let batches = stream_batches(2, 25, 5);
    let svc = QueryService::spawn(N, M, FollowerGraph::new(N), ServeConfig::default()).unwrap();
    let client = svc.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }

    let floods: Vec<_> = (0..4)
        .map(|_| {
            let client = svc.handle();
            std::thread::spawn(move || {
                let (mut answered, mut closed) = (0u32, 0u32);
                for j in 0..500 {
                    match client.posterior(j % M) {
                        Ok(_) => answered += 1,
                        Err(ServeError::Closed) => closed += 1,
                        Err(e) => panic!("unexpected client error: {e}"),
                    }
                }
                (answered, closed)
            })
        })
        .collect();

    // Shut down with the flood in flight.
    let stats = svc.shutdown().unwrap();
    assert!(stats.requests_served > 0);

    for f in floods {
        let (answered, closed) = f.join().unwrap();
        assert_eq!(
            answered + closed,
            500,
            "every request either answered or cleanly refused"
        );
    }
}

/// The `Metrics` request reflects prior traffic (request counters,
/// per-request-type latency histograms, ≥1 warm chain refit after
/// repeated ingests, streamed `em.*`/`stream.*` families), and the
/// always-on recorder never changes a bit of any served posterior
/// relative to a plain no-op-sink estimator replay.
#[test]
fn metrics_reflect_traffic_without_perturbing_posteriors() {
    let batches = stream_batches(3, 30, 13);

    // No-op-sink baseline: the raw estimator with metrics disabled.
    let mut est =
        StreamingEstimator::new(N, M, FollowerGraph::new(N), EmConfig::default()).unwrap();
    let mut baseline = Vec::new();
    for batch in &batches {
        est.ingest(batch).unwrap();
        baseline = est.estimate().unwrap().posterior;
    }

    // Service run: the worker's recorder is always on, plus an extra
    // teed recorder a caller might attach for export.
    let (extra, extra_rec) = socsense_serve::Obs::recorder();
    let svc =
        QueryService::spawn_with_obs(N, M, FollowerGraph::new(N), ServeConfig::default(), extra)
            .unwrap();
    let client = svc.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    let served = client.posteriors().unwrap();
    let p = client.posterior(0).unwrap();
    assert_eq!(p.to_bits(), served[0].to_bits());

    assert_eq!(
        bits(&baseline),
        bits(&served),
        "the metrics recorder must be observation-only"
    );

    let m = client.metrics().unwrap();
    // Traffic so far: 3 ingests, 1 posteriors, 1 posterior, plus the
    // in-flight metrics request itself (counted before dispatch).
    assert_eq!(m.counter("serve.requests_total"), 6);
    assert_eq!(m.counter("serve.refit.chain_total"), 3);
    assert!(
        m.counter("serve.refit.warm_total") >= 1,
        "repeated ingest must warm-start the chain"
    );
    assert_eq!(m.counter("serve.refit.failed_total"), 0);
    assert_eq!(m.counter("stream.ingest.claims_total"), 90);
    assert!(m.counter("em.runs_total") >= 3, "refits run EM");
    let ingest_lat = m
        .histogram("serve.request.ingest.seconds")
        .expect("ingest latency histogram present");
    assert_eq!(ingest_lat.count, 3);
    assert_eq!(
        m.histogram("serve.request.posteriors.seconds")
            .expect("posteriors latency histogram present")
            .count,
        1
    );
    assert!(
        m.histogram("serve.queue.wait_seconds")
            .expect("queue wait histogram present")
            .count
            >= 5
    );

    // The metrics request itself is traffic: a second snapshot counts
    // the first one.
    let m2 = client.metrics().unwrap();
    assert_eq!(m2.counter("serve.requests_total"), 7);
    assert_eq!(
        m2.histogram("serve.request.metrics.seconds")
            .expect("metrics latency histogram present")
            .count,
        1
    );

    svc.shutdown().unwrap();

    // The teed extra sink saw the same counters as the internal one.
    let teed = extra_rec.snapshot();
    assert_eq!(
        teed.counter("serve.refit.chain_total"),
        m2.counter("serve.refit.chain_total")
    );
    assert_eq!(teed.counter("stream.ingest.claims_total"), 90);
}
