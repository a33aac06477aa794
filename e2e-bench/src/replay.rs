//! `firehose`, and the sharded phase of its traced run: one closed-loop
//! ingest client replays a clustered Ukraine crawl back to back in
//! time-ordered batches into a durable tier, then respawns over the same
//! data directory. This is the start-up path of `apollo serve --input …
//! --data-dir`, except that EM runs at `Parallelism::Serial` (see
//! [`DataDir::config`]).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use socsense_graph::TimedClaim;
use socsense_matrix::Parallelism;
use socsense_obs::MetricsSnapshot;
use socsense_serve::ServeConfig;
use socsense_twitter::ScenarioConfig;

use crate::inputs::{batches, crawl_jsonl, ClaimStream, CRAWL_SEED};
use crate::measure::{dir_bytes, median, secs, shard_skew, tail, tracer, Window};
use crate::serving::{bits, recover, serve_ledger, DataDir, Service, Tier};
use crate::{Outcome, Scale};

/// Sizes and tiers of one run.
#[derive(PartialEq)]
pub struct Size {
    label: &'static str,
    /// Fraction of the Ukraine preset.
    scale: f64,
    batches: usize,
    /// The tier the stream is replayed into.
    tier: Tier,
    /// The tier respawned over the replay's data directory.
    recover_tier: Tier,
    /// Replays, each into a fresh data directory: acks and replay time
    /// pool over all of them.
    replays: usize,
    /// Respawns over each replay's data directory, right after it, so
    /// that restarts sample the whole run.
    restarts: usize,
    /// Whether a traced run also replays at `Parallelism::Auto`.
    auto_reference: bool,
}

impl Size {
    pub fn firehose(scale: Scale, seconds: u64) -> Self {
        // A replay and its three restarts take about 9 s on two vCPUs.
        let (scale, batches, replays, restarts) = match scale {
            Scale::Full => (0.5, 60, (seconds as usize / 10).max(2), 3),
            Scale::Smoke => (0.02, 12, 2, 1),
        };
        Self {
            label: "firehose",
            scale,
            batches,
            tier: Tier::Single,
            recover_tier: Tier::Single,
            replays,
            restarts,
            auto_reference: true,
        }
    }

    /// The sharded phase of a traced `firehose` run: two shards, restarted
    /// on one. Smaller than `firehose` because the router's rebuilds
    /// replay earlier batches: this stream costs about as much on the
    /// sharded tier as the larger one does on the single worker.
    pub fn sharded(scale: Scale) -> Self {
        Self {
            label: "sharded",
            scale: match scale {
                Scale::Full => 0.4,
                Scale::Smoke => 0.02,
            },
            batches: 16,
            tier: Tier::Sharded(2),
            recover_tier: Tier::Sharded(1),
            replays: 1,
            restarts: 1,
            auto_reference: false,
        }
    }
}

#[derive(PartialEq)]
pub struct Input {
    stream: ClaimStream,
    batches: Vec<Vec<TimedClaim>>,
    /// The assertion a restarted client asks about first.
    probe: u32,
}

pub fn setup(size: &Size, seed: u64) -> Input {
    let jsonl = crawl_jsonl(&ScenarioConfig::ukraine(), size.scale, CRAWL_SEED);
    let stream = ClaimStream::from_jsonl(&jsonl);
    let batches = batches(&stream.claims, size.batches);
    let probe = StdRng::seed_from_u64(seed).gen_range(0..stream.assertions);
    Input {
        stream,
        batches,
        probe,
    }
}

/// One replay: every batch acked in turn by a fresh durable service.
struct Replay {
    dir: DataDir,
    config: ServeConfig,
    spawn_s: f64,
    ack_s: Vec<f64>,
    claims: usize,
    replay_s: f64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    reference: Vec<u64>,
    chain_refits: u64,
}

fn replay(
    size: &Size,
    input: &Input,
    (par, rep): (Parallelism, usize),
    traced: bool,
    out: &mut Outcome,
) -> Option<Replay> {
    let dir = DataDir::fresh(&format!("{}-{par:?}-{rep}", size.label));
    let config = dir.config(par);
    let (obs, rec) = tracer(traced);
    let t = Instant::now();
    out.attempted += 1;
    let service = match Service::spawn(&input.stream, config.clone(), size.tier, obs) {
        Ok(s) => s,
        Err(e) => {
            out.failed += 1;
            out.notes.push(format!("spawn failed: {e}"));
            return None;
        }
    };
    let spawn_s = secs(t);

    let work = input.batches.clone();
    let before = rec.snapshot();
    let mut ack_s = Vec::with_capacity(work.len());
    let mut claims = 0usize;
    let start = Instant::now();
    for batch in work {
        out.attempted += 1;
        let n = batch.len();
        let t = Instant::now();
        match service.client.ingest(batch) {
            Ok(_) => {
                ack_s.push(secs(t));
                claims += n;
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("ingest failed: {e}"));
            }
        }
    }
    let replay_s = secs(start);
    let after = rec.snapshot();

    out.attempted += 2;
    let reference = service.client.posteriors();
    let stats = service.shutdown();
    match (reference, stats) {
        (Ok(p), Ok(s)) => Some(Replay {
            dir,
            config,
            spawn_s,
            ack_s,
            claims,
            replay_s,
            before,
            after,
            reference: bits(&p),
            chain_refits: s.chain_refits,
        }),
        (p, s) => {
            out.failed += u64::from(p.is_err()) + u64::from(s.is_err());
            out.notes.push("final read or shutdown failed".into());
            None
        }
    }
}

pub fn measure(size: &Size, input: &Input, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut replays = Vec::with_capacity(size.replays);
    let mut recovery_s = Vec::with_capacity(size.replays * size.restarts);
    let mut recovered = true;
    // The ledger covers the first replay and its first restart.
    let mut ledger = None;
    for rep in 0..size.replays {
        let Some(r) = replay(size, input, (Parallelism::Serial, rep), traced, &mut out) else {
            return out;
        };
        // Restart over the data directory: the recovered tier (which may
        // run another shard count) must answer exactly what the replayed
        // one did.
        let disk_bytes = dir_bytes(r.dir.path());
        let recovery = recover(
            |obs| Service::spawn(&input.stream, r.config.clone(), size.recover_tier, obs),
            input.probe,
            &r.reference,
            size.restarts,
            traced && rep == 0,
            &mut out,
        );
        recovered &= recovery.matched;
        recovery_s.extend_from_slice(&recovery.seconds);
        ledger.get_or_insert((disk_bytes, recovery));
        replays.push(r);
    }
    let first = &replays[0];
    let ack_s: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.ack_s.iter().copied())
        .collect();
    let acked_claims: usize = replays.iter().map(|r| r.claims).sum();
    let replay_s: f64 = replays.iter().map(|r| r.replay_s).sum();
    out.correct =
        replays.iter().all(|r| r.reference == first.reference) && recovered && !ack_s.is_empty();
    if !out.correct {
        return out;
    }

    let spawn_s: Vec<f64> = replays.iter().map(|r| r.spawn_s).collect();
    out.setup_s = median(&spawn_s);
    out.p50_s = median(&ack_s);
    out.throughput_per_s = acked_claims as f64 / replay_s;
    out.recovery_s = median(&recovery_s);
    let tail_note = tail(&ack_s).map_or("no tail under 20 batches".to_string(), |(p, v)| {
        format!("ingest_tail_s (p{p:.1}) {v:.4} s")
    });
    out.notes.push(format!(
        "{}: {} sources, {} clusters, {} claims in {} batches, {} replays on {:?}, recovered \
         on {:?}: spawn {:.4} s (median); ingest_claims_per_s {:.1} 1/s over {replay_s:.2} s; \
         ingest_p50_s {:.4} s; {tail_note}; recovery_s {:.3} s (median of {})",
        size.label,
        input.stream.sources,
        input.stream.assertions,
        input.stream.claims.len(),
        input.batches.len(),
        replays.len(),
        size.tier,
        size.recover_tier,
        out.setup_s,
        out.throughput_per_s,
        out.p50_s,
        out.recovery_s,
        recovery_s.len()
    ));
    if traced && size.auto_reference {
        // The default parallelism on the same stream: it must answer the
        // same bits, and its replay time shows what `Auto` costs.
        if let Some(auto) = replay(size, input, (Parallelism::Auto, 0), true, &mut out) {
            out.checks += 1;
            out.correct &= auto.reference == first.reference;
            out.layers.insert(
                "core.em.auto_over_serial_ratio",
                auto.replay_s / first.replay_s,
            );
        } else {
            out.correct = false;
        }
    }
    if let (true, Some((disk_bytes, recovery))) = (traced, ledger) {
        let w = Window::new(&first.before, &first.after);
        let l = &mut out.layers;
        serve_ledger(&w, disk_bytes, &recovery, l);
        l.insert("core.streaming.refit.busy_s", w.sum("stream.refit.seconds"));
        l.insert("core.streaming.refits", first.chain_refits as f64);
        if let Tier::Sharded(shards) = size.tier {
            l.insert(
                "serve.router.rebuilds",
                w.count("serve.router.rebuilds_total"),
            );
            l.insert(
                "serve.router.clusters",
                first.after.gauge("serve.router.clusters").unwrap_or(0.0),
            );
            l.insert("serve.shard.skew_ratio", shard_skew(&w, shards));
        }
        let busy = w.sum("serve.request.ingest.seconds") + w.sum("serve.queue.wait_seconds");
        l.insert("ledger.e2e_s", first.replay_s);
        l.insert("ledger.unattributed_s", first.replay_s - busy);
    }
    out
}
