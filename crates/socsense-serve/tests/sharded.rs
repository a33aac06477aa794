//! Sharded-tier equivalence tests: every served number must be
//! `f64::to_bits`-identical across shard counts, match the unsharded
//! service on single-cluster workloads, and stay epoch-consistent under
//! racing clients.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use socsense_core::{DeltaConfig, RefitMode};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_serve::{
    QueryService, ServeConfig, ServeError, ServeHandle, ServeStats, ShardedService, SourceRank,
};

const N: u32 = 6;
const M: u32 = 8;

/// A follow relation with a few dependency chains, so `D` cells and
/// silent-follower cluster links are exercised.
fn follow_graph() -> FollowerGraph {
    let mut g = FollowerGraph::new(N);
    g.add_follow(1, 0);
    g.add_follow(2, 0);
    g.add_follow(3, 1);
    g.add_follow(5, 4);
    g
}

/// First batch of the single-cluster world: source 0 claims every
/// assertion and every source claims something, so from batch one on
/// there is exactly one cluster covering all `N` sources and `M`
/// assertions — the identity remap under which the per-cluster
/// estimator is the global estimator.
fn bootstrap_batch() -> Vec<TimedClaim> {
    let mut t = 0u64;
    let mut batch = Vec::new();
    for j in 0..M {
        t += 1;
        batch.push(TimedClaim::new(0, j, t));
    }
    for s in 1..N {
        t += 1;
        batch.push(TimedClaim::new(s, s % M, t));
    }
    batch
}

fn random_batches(
    batches: usize,
    per_batch: usize,
    seed: u64,
    start_t: u64,
) -> Vec<Vec<TimedClaim>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = start_t;
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    t += 1;
                    TimedClaim::new(rng.gen_range(0..N), rng.gen_range(0..M), t)
                })
                .collect()
        })
        .collect()
}

fn bits(posterior: &[f64]) -> Vec<u64> {
    posterior.iter().map(|p| p.to_bits()).collect()
}

fn rank_bits(ranks: &[SourceRank]) -> Vec<(u32, u64, [u64; 4])> {
    ranks
        .iter()
        .map(|r| {
            (
                r.source,
                r.precision.to_bits(),
                [
                    r.params.a.to_bits(),
                    r.params.b.to_bits(),
                    r.params.f.to_bits(),
                    r.params.g.to_bits(),
                ],
            )
        })
        .collect()
}

/// On a world that is one cluster covering every source and assertion,
/// the sharded tier at shard counts 1, 2, and 4 reproduces the
/// unsharded `QueryService` bit for bit — acks, posteriors, source
/// ranks, bounds, and operating statistics — in both full and delta
/// refit modes.
#[test]
fn single_cluster_world_matches_unsharded_service_bit_for_bit() {
    let configs = [
        ServeConfig::default(),
        ServeConfig {
            refit_mode: RefitMode::Delta(DeltaConfig::default()),
            ..ServeConfig::default()
        },
    ];
    for cfg in configs {
        let mut batches = vec![bootstrap_batch()];
        batches.extend(random_batches(5, 18, 42, 1000));

        let legacy = QueryService::spawn(N, M, follow_graph(), cfg.clone()).unwrap();
        let sharded: Vec<ShardedService> = [1, 2, 4]
            .into_iter()
            .map(|s| ShardedService::spawn(N, M, follow_graph(), cfg.clone(), s).unwrap())
            .collect();

        let legacy_client = legacy.handle();
        let shard_clients: Vec<_> = sharded.iter().map(|s| s.handle()).collect();

        for batch in &batches {
            let ack = legacy_client.ingest(batch.clone()).unwrap();
            let reference = bits(&legacy_client.posteriors().unwrap());
            for (client, svc) in shard_clients.iter().zip(&sharded) {
                let shard_ack = client.ingest(batch.clone()).unwrap();
                assert_eq!(ack, shard_ack, "ingest ack at shards={}", svc.shards());
                assert_eq!(
                    reference,
                    bits(&client.posteriors().unwrap()),
                    "posteriors at shards={}",
                    svc.shards()
                );
            }
        }

        let top = rank_bits(&legacy_client.top_sources(N as usize).unwrap());
        let bound = legacy_client.bound(vec![], None).unwrap();
        let one = legacy_client.posterior(3).unwrap().to_bits();
        let stats = legacy_client.stats().unwrap();
        for (client, svc) in shard_clients.iter().zip(&sharded) {
            let s = svc.shards();
            assert_eq!(
                top,
                rank_bits(&client.top_sources(N as usize).unwrap()),
                "top sources at shards={s}"
            );
            let b = client.bound(vec![], None).unwrap();
            assert_eq!(
                bound.error.to_bits(),
                b.error.to_bits(),
                "bound at shards={s}"
            );
            assert_eq!(bound.false_positive.to_bits(), b.false_positive.to_bits());
            assert_eq!(bound.false_negative.to_bits(), b.false_negative.to_bits());
            assert_eq!(one, client.posterior(3).unwrap().to_bits());
            assert_eq!(stats, client.stats().unwrap(), "stats at shards={s}");
        }

        legacy.shutdown().unwrap();
        for svc in sharded {
            svc.shutdown().unwrap();
        }
    }
}

/// Cold-start symmetry (the satellite regression): a cluster whose
/// first claim arrives mid-stream — landing on a shard that was idle
/// until that moment — serves posteriors bit-identical to a
/// single-shard replay of the same interleaved sequence.
#[test]
fn mid_stream_cluster_birth_is_bit_identical_to_single_shard_replay() {
    const CN: u32 = 8;
    const CM: u32 = 16;
    // Cluster c lives on assertions {2c, 2c+1} with claimant source c:
    // disjoint by construction, so each batch below births cluster k
    // while appending to every previously-born cluster.
    let claim = |c: u32, second: bool, t: u64| TimedClaim::new(c, 2 * c + u32::from(second), t);
    let mut t = 0u64;
    let batches: Vec<Vec<TimedClaim>> = (0..CN)
        .map(|k| {
            let mut batch = Vec::new();
            t += 1;
            batch.push(claim(k, false, t)); // birth of cluster k
            for older in 0..k {
                t += 1;
                batch.push(claim(older, (t + older as u64).is_multiple_of(2), t));
            }
            batch
        })
        .collect();

    let spawn = |shards| {
        ShardedService::spawn(
            CN,
            CM,
            FollowerGraph::new(CN),
            ServeConfig::default(),
            shards,
        )
        .unwrap()
    };
    let single = spawn(1);
    let wide = spawn(4);
    let single_client = single.handle();
    let wide_client = wide.handle();
    for batch in &batches {
        single_client.ingest(batch.clone()).unwrap();
        wide_client.ingest(batch.clone()).unwrap();
        assert_eq!(
            bits(&single_client.posteriors().unwrap()),
            bits(&wide_client.posteriors().unwrap()),
            "posteriors must agree right after each cluster birth"
        );
    }
    assert_eq!(
        single_client.stats().unwrap(),
        wide_client.stats().unwrap(),
        "whole operating history must match, not just the last answer"
    );
    // Topology is sharded-only and counts as a request, so it comes
    // after the stats comparison.
    let topo = wide_client.topology().unwrap();
    assert_eq!(topo.shards, 4);
    assert_eq!(topo.epoch, batches.len() as u64);
    assert_eq!(topo.clusters.len(), CN as usize, "one cluster per camp");
    single.shutdown().unwrap();
    wide.shutdown().unwrap();
}

/// Before any ingest both tiers answer the neutral prior alike, bit for
/// bit: posteriors, source ranks, the bound, and the statistics (no
/// refit has run on either).
#[test]
fn both_tiers_answer_alike_before_any_ingest() {
    let (n, m) = (3, 2);
    let single = QueryService::spawn(n, m, FollowerGraph::new(n), ServeConfig::default()).unwrap();
    let sharded =
        ShardedService::spawn(n, m, FollowerGraph::new(n), ServeConfig::default(), 2).unwrap();
    let answers = |client: &ServeHandle| {
        let b = client.bound(vec![], None).unwrap();
        (
            bits(&client.posteriors().unwrap()),
            rank_bits(&client.top_sources(n as usize).unwrap()),
            [b.error, b.false_positive, b.false_negative].map(f64::to_bits),
            client.stats().unwrap(),
        )
    };
    let want = answers(&single.handle());
    assert_eq!(want, answers(&sharded.handle()));
    assert_eq!(want.0, bits(&[0.5, 0.5]), "the neutral posterior");
    assert_eq!(want.3.last_refit_iterations, None, "reads never refit");
    single.shutdown().unwrap();
    sharded.shutdown().unwrap();
}

/// Two ingesters race against a four-shard tier: the acks'
/// `total_claims` give the order the router applied the batches in, and
/// a serial single-shard replay in that order lands on the same bits.
#[test]
fn racing_ingesters_match_serial_single_shard_replay() {
    let batches = random_batches(6, 15, 7, 0);
    let racing = ShardedService::spawn(N, M, follow_graph(), ServeConfig::default(), 4).unwrap();
    let ingesters: Vec<_> = [0usize, 1]
        .into_iter()
        .map(|half| {
            let client = racing.handle();
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
    let client = racing.handle();
    let got_posteriors = bits(&client.posteriors().unwrap());
    let got_top = rank_bits(&client.top_sources(N as usize).unwrap());
    racing.shutdown().unwrap();

    // Every batch holds 15 claims, so the acks number them 15, 30, ….
    applied.sort_by_key(|&(total, _)| total);
    let totals: Vec<usize> = applied.iter().map(|&(total, _)| total).collect();
    assert_eq!(totals, (1..=6).map(|k| 15 * k).collect::<Vec<_>>());
    let serial = ShardedService::spawn(N, M, follow_graph(), ServeConfig::default(), 1).unwrap();
    let serial_client = serial.handle();
    for (_, batch) in applied {
        serial_client.ingest(batch).unwrap();
    }
    assert_eq!(bits(&serial_client.posteriors().unwrap()), got_posteriors);
    assert_eq!(
        rank_bits(&serial_client.top_sources(N as usize).unwrap()),
        got_top
    );
    serial.shutdown().unwrap();
}

/// Epoch consistency: fan-out queries racing hard against ingests never
/// observe a torn epoch (no protocol errors, no closed errors while the
/// service is up).
#[test]
fn fanout_queries_never_mix_epochs_under_racing_ingest() {
    let svc = ShardedService::spawn(N, M, follow_graph(), ServeConfig::default(), 4).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let queriers: Vec<_> = (0..3)
        .map(|q| {
            let client = svc.handle();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let r: Result<(), ServeError> = match served % 4 {
                        0 => client.posteriors().map(drop),
                        1 => client.top_sources(3).map(drop),
                        2 => client.stats().map(drop),
                        _ => client.posterior(q % M).map(drop),
                    };
                    match r {
                        Ok(()) | Err(ServeError::Sense(_)) => {}
                        Err(e) => panic!("epoch consistency violated: {e}"),
                    }
                    served += 1;
                }
                served
            })
        })
        .collect();
    let batches = random_batches(8, 12, 99, 0);
    let ingesters: Vec<_> = [0usize, 1]
        .into_iter()
        .map(|half| {
            let client = svc.handle();
            let mine: Vec<Vec<TimedClaim>> =
                batches.iter().skip(half).step_by(2).cloned().collect();
            std::thread::spawn(move || {
                for batch in mine {
                    client.ingest(batch).unwrap();
                }
            })
        })
        .collect();
    for i in ingesters {
        i.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = queriers.into_iter().map(|q| q.join().unwrap()).sum();
    assert!(total > 0, "queriers actually ran");
    let stats = svc.shutdown().unwrap();
    assert_eq!(stats.total_claims, 8 * 12);
}

mod properties {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    const PN: u32 = 7;
    const PM: u32 = 9;

    /// `(follow edges, batched claim stream)`.
    type World = (Vec<(u32, u32)>, Vec<Vec<(u32, u32)>>);

    /// All served numbers of one replay, as bits: posteriors,
    /// top-sources rows, a bound triple, and the final stats.
    type Fingerprint = (Vec<u64>, Vec<(u32, u64, [u64; 4])>, [u64; 3], ServeStats);

    /// Random follow edges + a random batched claim stream.
    fn world() -> impl Strategy<Value = World> {
        (
            pvec((0..PN, 0..PN), 0..8),
            pvec(pvec((0..PN, 0..PM), 1..10), 1..5),
        )
    }

    fn run(follows: &[(u32, u32)], batches: &[Vec<(u32, u32)>], shards: usize) -> Fingerprint {
        let mut g = FollowerGraph::new(PN);
        for &(f, a) in follows {
            if f != a {
                g.add_follow(f, a);
            }
        }
        let svc = ShardedService::spawn(PN, PM, g, ServeConfig::default(), shards).unwrap();
        let client = svc.handle();
        let mut t = 0u64;
        for batch in batches {
            let timed: Vec<TimedClaim> = batch
                .iter()
                .map(|&(s, j)| {
                    t += 1;
                    TimedClaim::new(s, j, t)
                })
                .collect();
            client.ingest(timed).unwrap();
        }
        let posteriors = bits(&client.posteriors().unwrap());
        let top = rank_bits(&client.top_sources(PN as usize).unwrap());
        let b = client.bound(vec![], None).unwrap();
        let bound = [
            b.error.to_bits(),
            b.false_positive.to_bits(),
            b.false_negative.to_bits(),
        ];
        let stats = client.stats().unwrap();
        svc.shutdown().unwrap();
        (posteriors, top, bound, stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The acceptance pin: `Shards(1) ≡ Shards(2) ≡ Shards(4)` down
        /// to the bit for every query kind, on arbitrary worlds
        /// (multi-cluster, cluster merges, silent followers).
        #[test]
        fn shard_count_never_changes_a_bit((follows, batches) in world()) {
            let reference = run(&follows, &batches, 1);
            for shards in [2usize, 4] {
                let got = run(&follows, &batches, shards);
                prop_assert_eq!(&reference.0, &got.0, "posteriors, shards={}", shards);
                prop_assert_eq!(&reference.1, &got.1, "top sources, shards={}", shards);
                prop_assert_eq!(&reference.2, &got.2, "bound, shards={}", shards);
                prop_assert_eq!(&reference.3, &got.3, "stats, shards={}", shards);
            }
        }
    }
}
