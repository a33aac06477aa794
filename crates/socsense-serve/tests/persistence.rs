//! Crash-recovery torture tests: a killed-and-restarted service must
//! answer every query type `f64::to_bits`-identically to a control
//! service that never died — including after a torn WAL tail, in delta
//! refit mode, and across a shard-count change (cluster handoff). A
//! crash is simulated by a crash image: a copy of the data directory
//! taken after the last ack, while the service is still up. A clean
//! shutdown checkpoints the last batch, so only a crash image leaves a
//! WAL tail to replay.
//!
//! Request counters are deliberately *not* compared: a recovered
//! service resumes them from the checkpoint, not from the control's
//! full query history. Served numbers are the contract.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use socsense_core::{DeltaConfig, RefitMode};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_persist::{SnapshotStore, WalWriter};
use socsense_serve::{
    IngestAck, Obs, PersistConfig, QueryService, ServeConfig, ServeError, ServeHandle,
    ShardedService, SourceRank,
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

/// A copy of every file under `from` at `to`.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_dir(&path, &dest);
        } else {
            std::fs::copy(&path, &dest).unwrap();
        }
    }
}

/// What a crash right now would leave of `dir`: a copy under a fresh
/// directory tagged `tag`. Take it while the owning service is idle
/// after its last ack.
fn crash_image(dir: &Path, tag: &str) -> PathBuf {
    let image = tmp_dir(tag);
    copy_dir(dir, &image);
    image
}

/// How many WAL batches the service behind `client` replayed at
/// recovery.
fn replayed(client: &ServeHandle) -> u64 {
    client
        .metrics()
        .unwrap()
        .counter("serve.wal.recovered_batches_total")
}

/// What a control that never stopped answers after `batches`, and then
/// after each of `more` (with its ack).
type Expected = (Fingerprint, Vec<(IngestAck, Fingerprint)>);

fn expected(
    control: &ServeHandle,
    batches: &[Vec<TimedClaim>],
    more: &[Vec<TimedClaim>],
) -> Expected {
    for batch in batches {
        control.ingest(batch.clone()).unwrap();
    }
    let first = fingerprint(control);
    let then = more
        .iter()
        .map(|batch| (control.ingest(batch.clone()).unwrap(), fingerprint(control)))
        .collect();
    (first, then)
}

/// Restarts a tier (`shards` as in [`Tier::open`]) over `dir` at
/// snapshot cadence 4 and checks it against `want`: recovery replays
/// `replayed_batches` WAL batches and answers like the control, the next
/// batches ack and answer alike, and after one more clean death a
/// restart that ingests nothing replays nothing and leaves `dir` byte
/// for byte as it was, holding only `snapshots/` and `wal.jsonl`.
fn check_restarts(
    base: &ServeConfig,
    shards: Option<usize>,
    dir: &Path,
    want: &Expected,
    more: &[Vec<TimedClaim>],
    replayed_batches: u64,
) {
    let cfg = persisted(base, dir, 4);
    let (b, client) = Tier::spawn(shards, &cfg);
    if let (Tier::Sharded(service), Some(shards)) = (&b, shards) {
        let topo = service.handle().topology().unwrap();
        assert_eq!(
            topo.shards, shards,
            "the restart re-partitioned the clusters"
        );
    }
    assert_eq!(replayed(&client), replayed_batches, "{}", dir.display());
    assert_eq!(
        fingerprint(&client),
        want.0,
        "recovered service must answer like one that never died"
    );
    for (batch, (ack, print)) in more.iter().zip(&want.1) {
        let got = client.ingest(batch.clone()).unwrap();
        assert_eq!(*ack, got, "post-recovery ingest acks must match");
        assert_eq!(fingerprint(&client), *print);
    }

    // One more death: B's own appends and checkpoints must recover too.
    b.shutdown().unwrap();
    let before = dir_bytes(dir);
    let (c, client) = Tier::spawn(shards, &cfg);
    assert_eq!(replayed(&client), 0, "a clean restart replays nothing");
    let last = want.1.last().map_or(&want.0, |(_, print)| print);
    assert_eq!(fingerprint(&client), *last);
    c.shutdown().unwrap();
    assert!(
        dir_bytes(dir) == before,
        "a restart that ingests nothing changed {}",
        dir.display()
    );
    let mut layout: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let slash = if path.is_dir() { "/" } else { "" };
            format!("{}{slash}", path.file_name().unwrap().to_string_lossy())
        })
        .collect();
    layout.sort();
    assert_eq!(
        layout,
        ["snapshots/", "wal.jsonl"],
        "both tiers keep one data-directory layout: {}",
        dir.display()
    );
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

/// Either tier over `cfg`, behind one client.
enum Tier {
    Serial(QueryService),
    Sharded(ShardedService),
}

impl Tier {
    /// The serial tier, or the sharded one over `shards` shards, over
    /// `cfg`, teeing its metrics into `extra`.
    fn open(
        shards: Option<usize>,
        cfg: &ServeConfig,
        extra: Obs,
    ) -> Result<(Self, ServeHandle), ServeError> {
        let cfg = cfg.clone();
        Ok(match shards {
            None => {
                let service = QueryService::spawn_with_obs(N, M, follow_graph(), cfg, extra)?;
                let client = service.handle();
                (Tier::Serial(service), client)
            }
            Some(shards) => {
                let service =
                    ShardedService::spawn_with_obs(N, M, follow_graph(), cfg, shards, extra)?;
                let client = (*service.handle()).clone();
                (Tier::Sharded(service), client)
            }
        })
    }

    fn spawn(shards: Option<usize>, cfg: &ServeConfig) -> (Self, ServeHandle) {
        Self::open(shards, cfg, Obs::none()).unwrap()
    }

    fn shutdown(self) -> Result<(), ServeError> {
        match self {
            Tier::Serial(service) => service.shutdown().map(drop),
            Tier::Sharded(service) => service.shutdown().map(drop),
        }
    }
}

fn snapshot_seqs(dir: &Path) -> Vec<u64> {
    SnapshotStore::open(&dir.join("snapshots"))
        .unwrap()
        .sequences()
        .unwrap()
}

/// The core torture loop, shared by the full- and delta-mode variants:
/// run service A over `dir`, take a crash image, shut A down cleanly,
/// and restart as B from each directory. Check B against a
/// never-persisted control — both right after recovery and after both
/// ingest further batches (the recovered warm-start chain must keep
/// advancing identically).
fn restart_round_trip(base: ServeConfig, tag: &str) {
    let dir = tmp_dir(tag);
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 42, 1000));
    let more = random_batches(2, 12, 43, 5000);

    let control = QueryService::spawn(N, M, follow_graph(), base.clone()).unwrap();
    let want = expected(&control.handle(), &batches, &more);
    control.shutdown().unwrap();

    // Snapshot cadence 4 over 6 batches: the crash image exercises both
    // the checkpoint (seq 4) and a non-empty WAL tail (batches 5, 6);
    // the clean shutdown checkpoints seq 6, leaving no tail.
    let a = QueryService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4)).unwrap();
    let client = a.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    let crashed = crash_image(&dir, &format!("{tag}-crash"));
    a.shutdown().unwrap();

    for (image, tail) in [(&crashed, 2), (&dir, 0)] {
        check_restarts(&base, None, image, &want, &more, tail);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crashed);
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

/// The sharded tier: run a 2-shard service, restart it as a 3-shard
/// service over its crash image and over its cleanly shut down data
/// directory (every cluster re-placed by the new rendezvous hash =
/// cluster handoff via snapshot ship + tail replay), and compare
/// against an unsharded-layout 1-shard control.
#[test]
fn sharded_restart_with_different_shard_count_is_bit_identical() {
    let base = ServeConfig::default();
    let dir = tmp_dir("sharded");
    // No bootstrap batch: the world stays multi-cluster, so recovery
    // moves several independent clusters, not one.
    let batches = random_batches(6, 10, 11, 0);
    let more = random_batches(2, 10, 13, 5000);

    let control = ShardedService::spawn(N, M, follow_graph(), base.clone(), 1).unwrap();
    let want = expected(&control.handle(), &batches, &more);
    control.shutdown().unwrap();

    let a = ShardedService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4), 2).unwrap();
    let client = a.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    let crashed = crash_image(&dir, "sharded-crash");
    a.shutdown().unwrap();

    for (image, tail) in [(&crashed, 2), (&dir, 0)] {
        check_restarts(&base, Some(3), image, &want, &more, tail);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crashed);
}

/// Every directory and file under `dir`, by path, each file with its
/// bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
    let mut entries = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(path) = pending.pop() {
        if path.is_dir() {
            for entry in std::fs::read_dir(&path).unwrap() {
                pending.push(entry.unwrap().path());
            }
            entries.insert(path, None);
        } else {
            entries.insert(path.clone(), Some(std::fs::read(&path).unwrap()));
        }
    }
    entries
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
            let (service, client) = Tier::open(shards, &cfg, Obs::none())?;
            for batch in feed {
                client.ingest(batch.clone())?;
            }
            service.shutdown()
        };
        run(&batches).unwrap();

        for (stamp, named) in [
            (Some(1), "checkpoint format 1"),
            (Some(2), "checkpoint format 2"),
            (Some(3), "checkpoint format 3"),
            (Some(7), "checkpoint format 7"),
            (None, "an unstamped checkpoint format"),
        ] {
            restamp_checkpoint(&dir, stamp);
            let before = dir_bytes(&dir);
            let err = run(&[])
                .expect_err("recovery refuses another format")
                .to_string();
            assert!(
                err.contains(named) && err.contains("reads checkpoint format 4"),
                "{tier}: the refusal names both formats: {err}"
            );
            assert!(
                dir_bytes(&dir) == before,
                "{tier}: the refused data directory changed"
            );
        }

        // Stamped back, the same directory recovers.
        restamp_checkpoint(&dir, Some(4));
        run(&[]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A WAL record whose claims are objects with named keys, as builds
/// before checkpoint format 4 wrote them, is refused on either tier: a
/// complete, CRC-valid line that does not decode is corruption, never a
/// torn tail, so spawning fails naming the line and truncates nothing.
#[test]
fn wal_record_with_object_encoded_claims_is_refused_and_left_as_is() {
    for shards in [None, Some(2)] {
        let dir = tmp_dir(&format!("object-claims-{shards:?}"));
        let claim = |source: u32, assertion: u32, time: u64| serde_json::json!({ "source": source, "assertion": assertion, "time": time });
        let record = serde_json::json!({
            "seq": 1u64,
            "claims": [claim(0, 0, 1), claim(1, 0, 2)],
        });
        let mut wal = WalWriter::open(&dir.join("wal.jsonl"), 1).unwrap();
        wal.append(&record).unwrap();
        drop(wal);
        let before = dir_bytes(&dir);

        let cfg = persisted(&ServeConfig::default(), &dir, 4);
        let err = Tier::open(shards, &cfg, Obs::none())
            .map(drop)
            .expect_err("an undecodable WAL record is refused");
        assert!(matches!(err, ServeError::Persist(_)), "{shards:?}: {err}");
        let err = err.to_string();
        assert!(
            err.contains("wal.jsonl is corrupt at line 1"),
            "{shards:?}: the refusal names the WAL line: {err}"
        );
        assert!(
            dir_bytes(&dir) == before,
            "{shards:?}: the refused data directory changed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A WAL whose sequence numbers skip a batch is refused on either tier,
/// naming the gap, and the data directory is left as it was: recovery
/// writes nothing before the gap check passes, so even the torn final
/// line after the gap stays.
#[test]
fn wal_gap_is_refused_and_left_as_is() {
    use std::io::Write;

    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 44, 1000));
    for shards in [None, Some(2)] {
        // A WAL alone, batches 1 and 3, then a torn append after the gap:
        // half a record, no newline.
        let dir = tmp_dir(&format!("wal-gap-{shards:?}"));
        let mut wal = WalWriter::open(&dir.join("wal.jsonl"), 1).unwrap();
        for (seq, claims) in [
            (1u64, [[0u64, 0, 1], [1, 0, 2]]),
            (3, [[2, 1, 3], [3, 1, 4]]),
        ] {
            wal.append(&serde_json::json!({ "seq": seq, "claims": claims }))
                .unwrap();
        }
        drop(wal);
        let mut file = OpenOptions::new()
            .append(true)
            .open(dir.join("wal.jsonl"))
            .unwrap();
        file.write_all(b"0badc0de {\"seq\":4,\"cla").unwrap();
        drop(file);

        // Checkpoint 4 and batches 5 and 6, then batch 8.
        let live = tmp_dir(&format!("wal-gap-live-{shards:?}"));
        let (service, client) = Tier::spawn(shards, &persisted(&ServeConfig::default(), &live, 4));
        for batch in &batches {
            client.ingest(batch.clone()).unwrap();
        }
        let checkpointed = crash_image(&live, &format!("wal-gap-checkpointed-{shards:?}"));
        service.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&live);
        let mut wal = WalWriter::open(&checkpointed.join("wal.jsonl"), 1).unwrap();
        wal.append(&serde_json::json!({ "seq": 8, "claims": [[0u64, 2, 9]] }))
            .unwrap();
        drop(wal);

        for (dir, gap) in [
            (dir, "expected batch 2, found 3"),
            (checkpointed, "expected batch 7, found 8"),
        ] {
            let before = dir_bytes(&dir);
            let cfg = persisted(&ServeConfig::default(), &dir, 4);
            let (extra, rec) = Obs::recorder();
            let err = Tier::open(shards, &cfg, extra)
                .map(drop)
                .expect_err("a WAL with a gap is refused");
            assert!(
                err.to_string().contains(&format!("WAL gap: {gap}")),
                "{shards:?}: the refusal names the gap: {err}"
            );
            assert!(
                dir_bytes(&dir) == before,
                "{shards:?}: the refused data directory changed"
            );
            // A refused recovery restores and replays nothing.
            let metrics = rec.snapshot();
            for name in [
                "serve.snapshot.restores_total",
                "serve.wal.recovered_batches_total",
            ] {
                assert_eq!(metrics.counter(name), 0, "{shards:?}: {gap}: {name}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A data directory that one tier checkpointed is refused by the other
/// tier's spawn, naming the tier that wrote it, and left as it was: the
/// single worker's checkpoint holds `slot`, the router's `clusters`.
#[test]
fn other_tiers_data_directory_is_refused_by_name() {
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 43, 1000));
    for (writer, reader, named) in [
        (
            None,
            Some(2),
            "written by the single worker (`QueryService`)",
        ),
        (
            Some(2),
            None,
            "written by the sharded router (`ShardedService`)",
        ),
    ] {
        let dir = tmp_dir(&format!("other-tier-{writer:?}"));
        let cfg = persisted(&ServeConfig::default(), &dir, 4);
        let (service, client) = Tier::spawn(writer, &cfg);
        for batch in &batches {
            client.ingest(batch.clone()).unwrap();
        }
        service.shutdown().unwrap();
        assert!(!snapshot_seqs(&dir).is_empty(), "premise: a checkpoint");
        let before = dir_bytes(&dir);

        let err = Tier::open(reader, &cfg, Obs::none())
            .map(drop)
            .expect_err("the other tier's directory is refused");
        assert!(matches!(err, ServeError::Persist(_)), "{reader:?}: {err}");
        assert!(
            err.to_string().contains(named),
            "{reader:?}: the refusal names the writer: {err}"
        );
        assert!(
            dir_bytes(&dir) == before,
            "{reader:?}: the refused data directory changed"
        );

        // The tier that wrote it still recovers it.
        let (service, _) = Tier::spawn(writer, &cfg);
        service.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A clean stop of either tier — `shutdown()` or drop — checkpoints the
/// last batch when periodic checkpoints are on, so a restart replays
/// nothing. At `snapshot_every = 0` it writes no checkpoint at all.
#[test]
fn clean_stop_checkpoints_the_last_batch_unless_checkpoints_are_off() {
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 42, 1000));
    for shards in [None, Some(2)] {
        for by_drop in [false, true] {
            let dir = tmp_dir(&format!("stop-{shards:?}-{by_drop}"));
            let cfg = persisted(&ServeConfig::default(), &dir, 4);
            let (service, client) = Tier::spawn(shards, &cfg);
            for batch in &batches {
                client.ingest(batch.clone()).unwrap();
            }
            let want = fingerprint(&client);
            if by_drop {
                drop(service);
            } else {
                service.shutdown().unwrap();
            }
            assert_eq!(snapshot_seqs(&dir), vec![4, 6], "{shards:?} {by_drop}");
            let (restarted, client) = Tier::spawn(shards, &cfg);
            assert_eq!(replayed(&client), 0);
            assert_eq!(fingerprint(&client), want);
            restarted.shutdown().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }

        let dir = tmp_dir(&format!("stop-{shards:?}-off"));
        let cfg = persisted(&ServeConfig::default(), &dir, 0);
        let (service, client) = Tier::spawn(shards, &cfg);
        for batch in &batches {
            client.ingest(batch.clone()).unwrap();
        }
        service.shutdown().unwrap();
        assert_eq!(snapshot_seqs(&dir), Vec::<u64>::new(), "{shards:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A shutdown checkpoint that cannot be written fails `shutdown()` with
/// a durability error, on either tier, and the data directory still
/// recovers every acked batch from the previous checkpoint and the WAL.
#[test]
fn failed_shutdown_checkpoint_surfaces_and_leaves_the_directory_recoverable() {
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 42, 1000));
    for shards in [None, Some(2)] {
        let dir = tmp_dir(&format!("blocked-{shards:?}"));
        let cfg = persisted(&ServeConfig::default(), &dir, 4);
        let (service, client) = Tier::spawn(shards, &cfg);
        for batch in &batches {
            client.ingest(batch.clone()).unwrap();
        }
        let want = fingerprint(&client);
        // A directory where the checkpoint's staging file goes makes
        // the write fail.
        let blocker = dir
            .join("snapshots")
            .join(format!("snapshot-{:020}.json.tmp", batches.len()));
        std::fs::create_dir_all(&blocker).unwrap();
        let err = service.shutdown().unwrap_err();
        assert!(matches!(err, ServeError::Persist(_)), "{shards:?}: {err}");

        std::fs::remove_dir(&blocker).unwrap();
        assert_eq!(snapshot_seqs(&dir), vec![4]);
        let (restarted, client) = Tier::spawn(shards, &cfg);
        assert_eq!(replayed(&client), 2, "{shards:?}");
        assert_eq!(fingerprint(&client), want);
        restarted.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// How many times each of recovery's, the snapshot read's, the restore's,
/// the WAL append's and the snapshot write's timers recorded in `metrics`.
fn timed(metrics: &socsense_serve::MetricsSnapshot) -> [u64; 5] {
    [
        "serve.recovery.seconds",
        "serve.snapshot.read.seconds",
        "serve.recovery.restore.seconds",
        "serve.wal.append.seconds",
        "serve.snapshot.write.seconds",
    ]
    .map(|name| metrics.histogram(name).map_or(0, |h| h.count))
}

/// Recovery — open, restore and tail replay — is timed once on
/// `serve.recovery.seconds`, in the service's own metrics and in an
/// attached recorder, and attaching the recorder changes no recovered
/// answer. So are the durable tier's steps: each WAL append, each
/// snapshot write, the snapshot read (read, CRC check and decode) and
/// the restore of a checkpoint.
#[test]
fn recovery_is_timed_and_the_recorder_changes_no_bit() {
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 42, 1000));
    for shards in [None, Some(2)] {
        let dir = tmp_dir(&format!("timed-{shards:?}"));
        let cfg = persisted(&ServeConfig::default(), &dir, 4);
        let (service, client) = Tier::spawn(shards, &cfg);
        for batch in &batches {
            client.ingest(batch.clone()).unwrap();
        }
        // Over an empty directory: a read that finds no snapshot and
        // nothing to restore; then six appends and checkpoint 4.
        assert_eq!(
            timed(&client.metrics().unwrap()),
            [1, 1, 0, 6, 1],
            "{shards:?}: recovery over an empty directory is timed too"
        );
        // Both restarts replay checkpoint 4 plus batches 5 and 6.
        let plain_dir = crash_image(&dir, &format!("timed-{shards:?}-plain"));
        let traced_dir = crash_image(&dir, &format!("timed-{shards:?}-traced"));
        service.shutdown().unwrap();

        let (plain, plain_client) =
            Tier::spawn(shards, &persisted(&ServeConfig::default(), &plain_dir, 4));
        let (extra, rec) = Obs::recorder();
        let traced_cfg = persisted(&ServeConfig::default(), &traced_dir, 4);
        let (traced, traced_client) = Tier::open(shards, &traced_cfg, extra).unwrap();
        assert_eq!(
            fingerprint(&traced_client),
            fingerprint(&plain_client),
            "{shards:?}: the recorder must be observation-only"
        );
        // Each restart reads and restores checkpoint 4 and replays the
        // tail without appending it again.
        for metrics in [traced_client.metrics().unwrap(), rec.snapshot()] {
            assert_eq!(timed(&metrics), [1, 1, 1, 0, 0], "{shards:?}");
            assert_eq!(metrics.counter("serve.wal.recovered_batches_total"), 2);
        }
        plain.shutdown().unwrap();
        traced.shutdown().unwrap();
        for dir in [dir, plain_dir, traced_dir] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Every fsync either store issues is counted where it is issued, on
/// `serve.wal.fsyncs_total` and `serve.snapshot.fsyncs_total`, and
/// reopening existing state issues none.
#[test]
fn every_fsync_is_counted_where_it_is_issued() {
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 42, 1000));
    // Six batches at `fsync_every = 1` and checkpoint cadence 4. A fresh
    // open fsyncs the directories that gain `snapshots/` and the data
    // directory (2, snapshot store) and the one that gains the WAL file
    // (1, WAL). Checkpoints 4 and 6 (the shutdown one) fsync a file and
    // its directory each; the serial tier truncates its WAL after each,
    // the router keeps its WAL.
    for (shards, wal, snapshot) in [(None, 1 + 6 + 2, 2 + 2 * 2), (Some(2), 1 + 6, 2 + 2 * 2)] {
        let dir = tmp_dir(&format!("fsyncs-{shards:?}"));
        let cfg = persisted(&ServeConfig::default(), &dir, 4);
        let (extra, rec) = Obs::recorder();
        let (service, client) = Tier::open(shards, &cfg, extra).unwrap();
        for batch in &batches {
            client.ingest(batch.clone()).unwrap();
        }
        service.shutdown().unwrap();
        let counted = rec.snapshot();
        assert_eq!(
            (
                counted.counter("serve.wal.fsyncs_total"),
                counted.counter("serve.snapshot.fsyncs_total")
            ),
            (wal, snapshot),
            "{shards:?}"
        );

        let (extra, rec) = Obs::recorder();
        let (service, _client) = Tier::open(shards, &cfg, extra).unwrap();
        service.shutdown().unwrap();
        let counted = rec.snapshot();
        assert_eq!(
            (
                counted.counter("serve.wal.fsyncs_total"),
                counted.counter("serve.snapshot.fsyncs_total")
            ),
            (0, 0),
            "{shards:?}: reopening existing state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
