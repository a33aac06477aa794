//! Crash-recovery torture tests: a killed-and-restarted service must
//! answer every query type `f64::to_bits`-identically to a control
//! service that never died — including after a torn WAL tail, in delta
//! refit mode, and across a shard-count change (cluster handoff).
//!
//! Probe/request counters are deliberately *not* compared: a recovered
//! service resumes them from the checkpoint, not from the control's
//! full query history. Served numbers are the contract.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use socsense_core::{DeltaConfig, RefitMode};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_persist::SnapshotStore;
use socsense_serve::{
    PersistConfig, QueryService, ServeConfig, ServeError, ServeHandle, ShardedService, SourceRank,
};

const N: u32 = 6;
const M: u32 = 8;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("socsense-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// Source 0 claims every assertion and every source claims something:
/// one cluster covering the whole world from batch one on.
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

/// Every query type's answer, as bits.
type Fingerprint = (Vec<u64>, Vec<(u32, u64, [u64; 4])>, [u64; 3], u64);

fn fingerprint(client: &ServeHandle) -> Fingerprint {
    let posteriors = bits(&client.posteriors().unwrap());
    let top = rank_bits(&client.top_sources(N as usize).unwrap());
    let b = client.bound(vec![], None).unwrap();
    let bound = [
        b.error.to_bits(),
        b.false_positive.to_bits(),
        b.false_negative.to_bits(),
    ];
    let one = client.posterior(3).unwrap().to_bits();
    (posteriors, top, bound, one)
}

fn persisted(cfg: &ServeConfig, dir: &Path, snapshot_every: usize) -> ServeConfig {
    ServeConfig {
        persist: Some(PersistConfig {
            data_dir: dir.to_path_buf(),
            fsync_every: 1,
            snapshot_every,
        }),
        ..cfg.clone()
    }
}

/// The core torture loop, shared by the full- and delta-mode variants:
/// run service A over `dir`, kill it, restart as B, and check B against
/// a never-persisted control — both right after recovery and after both
/// ingest further batches (the recovered warm-start chain must keep
/// advancing identically).
fn restart_round_trip(base: ServeConfig, tag: &str) {
    let dir = tmp_dir(tag);
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 42, 1000));
    let more = random_batches(2, 12, 43, 5000);

    // Snapshot cadence 4 over 6 batches: recovery exercises both the
    // checkpoint (seq 4) and a non-empty WAL tail (batches 5, 6).
    let a = QueryService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4)).unwrap();
    let client = a.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    a.shutdown().unwrap();

    let control = QueryService::spawn(N, M, follow_graph(), base.clone()).unwrap();
    let control_client = control.handle();
    for batch in &batches {
        control_client.ingest(batch.clone()).unwrap();
    }

    let b = QueryService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4)).unwrap();
    let b_client = b.handle();
    assert_eq!(
        fingerprint(&b_client),
        fingerprint(&control_client),
        "recovered service must answer like one that never died"
    );

    for batch in &more {
        let want = control_client.ingest(batch.clone()).unwrap();
        let got = b_client.ingest(batch.clone()).unwrap();
        assert_eq!(want, got, "post-recovery ingest acks must match");
        assert_eq!(fingerprint(&b_client), fingerprint(&control_client));
    }

    // One more death: B's own appends and checkpoints must recover too.
    b.shutdown().unwrap();
    let c = QueryService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4)).unwrap();
    assert_eq!(fingerprint(&c.handle()), fingerprint(&control_client));
    c.shutdown().unwrap();
    control.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serial_restart_is_bit_identical() {
    restart_round_trip(ServeConfig::default(), "serial");
}

#[test]
fn delta_mode_restart_is_bit_identical() {
    restart_round_trip(
        ServeConfig {
            refit_mode: RefitMode::Delta(DeltaConfig::default()),
            ..ServeConfig::default()
        },
        "delta",
    );
}

/// A crash mid-append leaves a torn final WAL line. Recovery must drop
/// exactly the torn record (the client never got its ack) and serve the
/// surviving prefix; re-ingesting the lost batch reconverges with the
/// control.
#[test]
fn torn_wal_tail_recovers_the_acked_prefix() {
    use std::io::Write;

    let dir = tmp_dir("torn");
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(2, 10, 7, 1000));

    // Snapshot cadence 0: the WAL alone is the recovery source, so the
    // torn record is guaranteed to sit in the replayed region.
    let a = QueryService::spawn(
        N,
        M,
        follow_graph(),
        persisted(&ServeConfig::default(), &dir, 0),
    )
    .unwrap();
    let client = a.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    a.shutdown().unwrap();

    // Tear the final record mid-line, as a crash between `write` and
    // the blocks reaching disk would.
    let wal = dir.join("wal.jsonl");
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 7).unwrap();
    drop(file);
    // And a few garbage bytes after it, as a partially flushed block.
    let mut file = OpenOptions::new().append(true).open(&wal).unwrap();
    file.write_all(b"\x00\xffgarbage").unwrap();
    drop(file);

    let control = QueryService::spawn(N, M, follow_graph(), ServeConfig::default()).unwrap();
    let control_client = control.handle();
    for batch in &batches[..batches.len() - 1] {
        control_client.ingest(batch.clone()).unwrap();
    }

    let b = QueryService::spawn(
        N,
        M,
        follow_graph(),
        persisted(&ServeConfig::default(), &dir, 0),
    )
    .unwrap();
    let b_client = b.handle();
    assert_eq!(
        fingerprint(&b_client),
        fingerprint(&control_client),
        "torn tail must roll back to the last intact record"
    );

    // The lost batch is re-ingested (the client retries an un-acked
    // send) and both worlds reconverge.
    let last = batches.last().unwrap().clone();
    control_client.ingest(last.clone()).unwrap();
    b_client.ingest(last).unwrap();
    assert_eq!(fingerprint(&b_client), fingerprint(&control_client));

    b.shutdown().unwrap();
    control.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sharded tier: kill a 2-shard service, restart it as a 3-shard
/// service over the same data directory (every cluster re-placed by the
/// new rendezvous hash = cluster handoff via snapshot ship + tail
/// replay), and compare against an unsharded-layout 1-shard control.
#[test]
fn sharded_restart_with_different_shard_count_is_bit_identical() {
    let base = ServeConfig::default();
    let dir = tmp_dir("sharded");
    // No bootstrap batch: the world stays multi-cluster, so recovery
    // moves several independent clusters, not one.
    let batches = random_batches(6, 10, 11, 0);
    let more = random_batches(2, 10, 13, 5000);

    let a = ShardedService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4), 2).unwrap();
    let client = a.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    a.shutdown().unwrap();

    let control = ShardedService::spawn(N, M, follow_graph(), base.clone(), 1).unwrap();
    let control_client = control.handle();
    for batch in &batches {
        control_client.ingest(batch.clone()).unwrap();
    }

    let b = ShardedService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4), 3).unwrap();
    let b_client = b.handle();
    assert_eq!(
        fingerprint(&b_client),
        fingerprint(&control_client),
        "recovery across a shard-count change must not move a bit"
    );

    for batch in &more {
        let want = control_client.ingest(batch.clone()).unwrap();
        let got = b_client.ingest(batch.clone()).unwrap();
        assert_eq!(want, got, "post-recovery ingest acks must match");
        assert_eq!(fingerprint(&b_client), fingerprint(&control_client));
    }
    let topo = b_client.topology().unwrap();
    assert_eq!(topo.shards, 3, "the restart re-partitioned the clusters");

    b.shutdown().unwrap();
    control.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, by path, with its bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(path) = pending.pop() {
        if path.is_dir() {
            for entry in std::fs::read_dir(&path).unwrap() {
                pending.push(entry.unwrap().path());
            }
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

/// Rewrites the newest checkpoint under `dir` with its format stamp set
/// to `format`, or removed when `None`, as a build of another checkpoint
/// format would have written it.
fn restamp_checkpoint(dir: &Path, format: Option<u64>) {
    let mut store = SnapshotStore::open(&dir.join("snapshots")).unwrap();
    let (seq, mut payload) = store
        .latest::<serde_json::Value>()
        .unwrap()
        .expect("the run wrote a checkpoint");
    let serde_json::Value::Object(fields) = &mut payload else {
        panic!("a checkpoint is a JSON object");
    };
    match format {
        Some(format) => fields.insert("format".into(), serde_json::json!(format)),
        None => fields.remove("format"),
    };
    store.write(seq, &payload).unwrap();
}

/// A checkpoint of another format stops recovery with an error naming
/// both formats, on either tier, and leaves the data directory byte for
/// byte as it was: the WAL the checkpoint truncated cannot rebuild it.
#[test]
fn checkpoint_of_another_format_is_refused_and_left_as_is() {
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 42, 1000));
    for shards in [None, Some(2)] {
        let tier = if shards.is_some() {
            "sharded"
        } else {
            "serial"
        };
        let dir = tmp_dir(&format!("format-{tier}"));
        let cfg = persisted(&ServeConfig::default(), &dir, 4);
        // Spawns the tier over `dir`, ingests `feed` and shuts it down.
        let run = |feed: &[Vec<TimedClaim>]| -> Result<(), ServeError> {
            match shards {
                None => {
                    let service = QueryService::spawn(N, M, follow_graph(), cfg.clone())?;
                    for batch in feed {
                        service.handle().ingest(batch.clone())?;
                    }
                    service.shutdown().map(drop)
                }
                Some(shards) => {
                    let service = ShardedService::spawn(N, M, follow_graph(), cfg.clone(), shards)?;
                    for batch in feed {
                        service.handle().ingest(batch.clone())?;
                    }
                    service.shutdown().map(drop)
                }
            }
        };
        run(&batches).unwrap();

        for (stamp, named) in [
            (Some(7), "checkpoint format 7"),
            (None, "an unstamped checkpoint format"),
        ] {
            restamp_checkpoint(&dir, stamp);
            let before = dir_bytes(&dir);
            let err = run(&[])
                .expect_err("recovery refuses another format")
                .to_string();
            assert!(
                err.contains(named) && err.contains("reads checkpoint format 1"),
                "{tier}: the refusal names both formats: {err}"
            );
            assert!(
                dir_bytes(&dir) == before,
                "{tier}: the refused data directory changed"
            );
        }

        // Stamped back, the same directory recovers.
        restamp_checkpoint(&dir, Some(1));
        run(&[]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
