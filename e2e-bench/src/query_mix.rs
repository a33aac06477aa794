//! The query-mix phase of a traced `firehose` run: read-heavy steady
//! state on the single-worker tier in delta refit mode, durable. A
//! closed-loop query client (the dashboard or REPL caller, which blocks
//! on each reply) reads while an open-loop crawler trickles the rest of
//! the crawl in on a fixed period. It is the only phase through delta
//! refits, bounds and the read paths.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use socsense_core::{DeltaConfig, RefitMode};
use socsense_graph::TimedClaim;
use socsense_matrix::Parallelism;
use socsense_obs::Obs;
use socsense_serve::{ServeConfig, ServeError, ServeHandle};
use socsense_twitter::ScenarioConfig;

use crate::inputs::{batches, crawl_jsonl, ClaimStream, CRAWL_SEED};
use crate::measure::{dir_bytes, median, secs, sleep_until, tail, tracer, Window};
use crate::serving::{bits, recover, serve_ledger, DataDir, Service, Tier};
use crate::{Outcome, Scale};

/// Claims per crawler trickle batch.
const TRICKLE_CLAIMS: usize = 15;
/// Read types the query client sends, as the service labels them, with
/// their busy-time and count metrics.
const READS: [(&str, &str, &str); 5] = [
    (
        "posterior",
        "serve.read.posterior.busy_s",
        "serve.read.posterior.count",
    ),
    (
        "posteriors",
        "serve.read.posteriors.busy_s",
        "serve.read.posteriors.count",
    ),
    (
        "top_sources",
        "serve.read.top_sources.busy_s",
        "serve.read.top_sources.count",
    ),
    ("stats", "serve.read.stats.busy_s", "serve.read.stats.count"),
    ("bound", "serve.read.bound.busy_s", "serve.read.bound.count"),
];

#[derive(PartialEq)]
pub struct Size {
    /// Fraction of the Ukraine preset.
    scale: f64,
    /// Share of the crawl primed in set-up, and in how many batches.
    primed_share: f64,
    primed_batches: usize,
    /// Trickle batches in the phase: the phase ends after the last ack.
    trickle_batches: usize,
    /// Open-loop trickle period, at least twice a trickle refit.
    period: Duration,
    /// Single-assertion bound requests, spread over the phase.
    bounds: usize,
}

impl Size {
    pub fn new(scale: Scale) -> Self {
        match scale {
            // 8 priming plus 20 trickle batches leave a 4-batch WAL tail
            // after the last snapshot (every 8th batch) for the restarts.
            Scale::Full => Self {
                scale: 0.3,
                primed_share: 0.8,
                primed_batches: 8,
                trickle_batches: 20,
                period: Duration::from_millis(500),
                bounds: 10,
            },
            Scale::Smoke => Self {
                scale: 0.02,
                primed_share: 0.8,
                primed_batches: 2,
                trickle_batches: 3,
                period: Duration::from_millis(20),
                bounds: 2,
            },
        }
    }
}

#[derive(PartialEq)]
pub struct Input {
    stream: ClaimStream,
    priming: Vec<Vec<TimedClaim>>,
    trickle: Vec<Vec<TimedClaim>>,
    /// Assertions the bound requests ask about.
    bound_targets: Vec<u32>,
    /// Seeds the read sequence and the first query after a restart.
    seed: u64,
}

pub fn setup(size: &Size, seed: u64) -> Input {
    let jsonl = crawl_jsonl(&ScenarioConfig::ukraine(), size.scale, CRAWL_SEED);
    let stream = ClaimStream::from_jsonl(&jsonl);
    let cut = (stream.claims.len() as f64 * size.primed_share) as usize;
    let priming = batches(&stream.claims[..cut], size.primed_batches);
    let trickle: Vec<Vec<TimedClaim>> = stream.claims[cut..]
        .chunks(TRICKLE_CLAIMS)
        .take(size.trickle_batches)
        .map(<[TimedClaim]>::to_vec)
        .collect();
    assert_eq!(
        trickle.len(),
        size.trickle_batches,
        "the crawl is too small for the trickle phase"
    );
    // A bound's Gibbs chain runs until it converges, which takes from
    // 0.2 s to 0.8 s depending on the assertion, so every run asks about
    // the same assertions; the run seed drives the read sequence.
    let mut rng = StdRng::seed_from_u64(CRAWL_SEED);
    let bound_targets = (0..size.bounds)
        .map(|_| rng.gen_range(0..stream.assertions))
        .collect();
    Input {
        stream,
        priming,
        trickle,
        bound_targets,
        seed,
    }
}

/// The closed-loop query client: reads until the crawler has finished.
/// Bound `b` is sent once the crawler's `b·stride`-th batch is acked, so
/// each bound evaluates a known ingest prefix. Returns read latencies
/// (`f32`, reserved up front so the sample buffer does not grow the
/// peak RSS with the read count) and the number of failed reads.
fn query_client(
    client: &ServeHandle,
    input: &Input,
    size: &Size,
    acked: &AtomicUsize,
) -> (Vec<f32>, u64) {
    let mut rng = StdRng::seed_from_u64(input.seed);
    let m = input.stream.assertions;
    let stride = (size.trickle_batches / size.bounds.max(1)).max(1);
    let mut next_bound = 0usize;
    let mut reads = Vec::with_capacity(1 << 20);
    let mut failed = 0u64;
    let mut i = 0u64;
    while acked.load(Ordering::SeqCst) < size.trickle_batches {
        let done = acked.load(Ordering::SeqCst);
        let j = rng.gen_range(0..m);
        let t = Instant::now();
        let result: Result<(), ServeError> =
            if next_bound < input.bound_targets.len() && done >= next_bound * stride {
                next_bound += 1;
                client
                    .bound(vec![input.bound_targets[next_bound - 1]], None)
                    .map(drop)
            } else if i % 64 == 63 {
                client.posteriors().map(drop)
            } else if i % 64 == 31 {
                client.top_sources(10).map(drop)
            } else if i % 128 == 15 {
                client.stats().map(drop)
            } else {
                client.posterior(j).map(drop)
            };
        let latency = secs(t);
        match result {
            Ok(()) => reads.push(latency as f32),
            Err(_) => failed += 1,
        }
        i += 1;
    }
    (reads, failed)
}

/// Spawns a durable delta-mode service and primes it; returns it with
/// the last priming ack's latency.
fn primed(
    input: &Input,
    config: &ServeConfig,
    obs: Obs,
    out: &mut Outcome,
) -> Result<(Service, f64), ServeError> {
    out.attempted += 1;
    let service = Service::spawn(&input.stream, config.clone(), Tier::Single, obs)?;
    let mut last_s = 0.0;
    for batch in &input.priming {
        out.attempted += 1;
        let t = Instant::now();
        service.client.ingest(batch.clone())?;
        last_s = secs(t);
    }
    Ok((service, last_s))
}

pub fn measure(size: &Size, input: &Input) -> Outcome {
    let mut out = Outcome::default();
    let dir = DataDir::fresh("query-mix");
    let config = ServeConfig {
        refit_mode: RefitMode::Delta(DeltaConfig::default()),
        ..dir.config(Parallelism::Serial)
    };
    let (obs, rec) = tracer(true);
    let (service, last_prime_s) = match primed(input, &config, obs, &mut out) {
        Ok(ready) => ready,
        Err(e) => {
            out.failed += 1;
            out.notes.push(format!("priming failed: {e}"));
            return out;
        }
    };

    // The phase: crawler open loop, query client closed loop.
    let before = rec.snapshot();
    let acked = AtomicUsize::new(0);
    let work = input.trickle.clone();
    let start = Instant::now();
    let (trickle, (reads, read_failures)) = std::thread::scope(|s| {
        let crawler = s.spawn(|| {
            let mut from_due_s = Vec::with_capacity(work.len());
            let mut failed = 0u64;
            for (k, batch) in work.into_iter().enumerate() {
                let due = start + size.period * k as u32;
                sleep_until(due);
                if service.client.ingest(batch).is_err() {
                    failed += 1;
                }
                from_due_s.push(secs(due));
                acked.store(k + 1, Ordering::SeqCst);
            }
            (from_due_s, failed, Instant::now())
        });
        let reads = query_client(&service.client, input, size, &acked);
        (crawler.join().expect("the crawler thread panicked"), reads)
    });
    let (ingest_s, ingest_failures, end) = trickle;
    let phase_s = (end - start).as_secs_f64();
    let after = rec.snapshot();
    out.attempted += (ingest_s.len() + reads.len()) as u64 + read_failures;
    out.failed += ingest_failures + read_failures;

    // Final answers must survive a restart bit for bit.
    out.attempted += 2;
    let reference = service.client.posteriors();
    let stats = service.shutdown();
    let reference = match (reference, stats) {
        (Ok(p), Ok(_)) => bits(&p),
        (p, s) => {
            out.failed += u64::from(p.is_err()) + u64::from(s.is_err());
            out.notes.push("final read or shutdown failed".into());
            return out;
        }
    };
    let disk_bytes = dir_bytes(dir.path());
    let probe = StdRng::seed_from_u64(input.seed).gen_range(0..input.stream.assertions);
    let recovery = recover(
        |obs| Service::spawn(&input.stream, config.clone(), Tier::Single, obs),
        probe,
        &reference,
        1,
        true,
        &mut out,
    );
    out.correct = recovery.matched && !reads.is_empty();
    if !out.correct {
        return out;
    }

    let query_s: Vec<f64> = reads.iter().map(|&r| f64::from(r)).collect();
    let fmt_tail = |name: &str, xs: &[f64]| {
        tail(xs).map_or(format!("no {name} under 20 samples"), |(p, v)| {
            format!("{name} (p{p:.3}) {v:.6} s")
        })
    };
    out.notes.push(format!(
        "query-mix: {} claims primed in {} batches (last ack {last_prime_s:.3} s); phase \
         {phase_s:.2} s: query_per_s {:.0} 1/s ({} reads), query_p50_s {:.7} s, {}; {} trickle \
         batches every {:.3} s: ingest_p50_s from due {:.4} s, {}; recovery_s {:.3} s (median \
         of {})",
        input.priming.iter().map(Vec::len).sum::<usize>(),
        input.priming.len(),
        reads.len() as f64 / phase_s,
        reads.len(),
        median(&query_s),
        fmt_tail("query_tail_s", &query_s),
        ingest_s.len(),
        size.period.as_secs_f64(),
        median(&ingest_s),
        fmt_tail("ingest_tail_s", &ingest_s),
        median(&recovery.seconds),
        recovery.seconds.len(),
    ));
    {
        let w = Window::new(&before, &after);
        let l = &mut out.layers;
        serve_ledger(&w, disk_bytes, &recovery, l);
        // The worker's busy time: every read and every trickle ingest. The
        // rest of the phase is the worker waiting for the next request,
        // mostly the reply half of each read's round trip. Queue wait is
        // not added: a request waits only while another one is busy.
        let mut attributed = w.sum("serve.request.ingest.seconds");
        for (read, busy, count) in READS {
            let name = format!("serve.request.{read}.seconds");
            attributed += w.sum(&name);
            l.insert(busy, w.sum(&name));
            l.insert(count, w.n(&name));
        }
        let scoped = w.count("serve.refit.delta_total");
        let fallbacks = w.count("serve.refit.fallback_total");
        l.insert("core.delta.scoped_refits", scoped);
        l.insert("core.delta.fallbacks", fallbacks);
        if scoped + fallbacks > 0.0 {
            l.insert("core.delta.scoped_ratio", scoped / (scoped + fallbacks));
        }
        l.insert("core.bound.busy_s", w.sum("bound.eval.seconds"));
        l.insert(
            "core.bound.gibbs_samples",
            w.count("bound.gibbs.samples_total"),
        );
        l.insert("core.streaming.refits", w.count("serve.refit.chain_total"));
        l.insert("ledger.e2e_s", phase_s);
        l.insert("ledger.unattributed_s", phase_s - attributed);
    }
    out
}
