//! The two serving tiers behind one spawn/shutdown surface, the per-run
//! data directories they persist into, and what every durable serving
//! phase measures alike: restarts over the data directory and the
//! serve/persist ledger.

use std::path::{Path, PathBuf};
use std::time::Instant;

use socsense_core::EmConfig;
use socsense_matrix::Parallelism;
use socsense_obs::{MetricsSnapshot, Obs};
use socsense_serve::{
    PersistConfig, QueryService, ServeConfig, ServeError, ServeHandle, ServeStats, ShardedService,
};

use crate::inputs::ClaimStream;
use crate::measure::{secs, tracer, Layers, Window};
use crate::Outcome;

/// Which tier serves the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The single-worker `QueryService`.
    Single,
    /// `ShardedService` with this many shards.
    Sharded(usize),
}

#[derive(Debug)]
enum Backend {
    Single(QueryService),
    Sharded(ShardedService),
}

/// A running service and one client of it.
#[derive(Debug)]
pub struct Service {
    backend: Backend,
    pub client: ServeHandle,
}

impl Service {
    /// Spawns `tier` over `stream`'s shape; a durable `config` recovers
    /// whatever its data directory already holds.
    pub fn spawn(
        stream: &ClaimStream,
        config: ServeConfig,
        tier: Tier,
        obs: Obs,
    ) -> Result<Self, ServeError> {
        let (n, m, graph) = (stream.sources, stream.assertions, stream.graph.clone());
        Ok(match tier {
            Tier::Single => {
                let service = QueryService::spawn_with_obs(n, m, graph, config, obs)?;
                let client = service.handle();
                Self {
                    backend: Backend::Single(service),
                    client,
                }
            }
            Tier::Sharded(shards) => {
                let service = ShardedService::spawn_with_obs(n, m, graph, config, shards, obs)?;
                let client = (*service.handle()).clone();
                Self {
                    backend: Backend::Sharded(service),
                    client,
                }
            }
        })
    }

    pub fn shutdown(self) -> Result<ServeStats, ServeError> {
        match self.backend {
            Backend::Single(service) => service.shutdown(),
            Backend::Sharded(service) => service.shutdown(),
        }
    }
}

/// A fresh data directory under `.bench_data/` in the working directory
/// (the checkout), removed again on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn fresh(label: &str) -> Self {
        let dir = PathBuf::from(".bench_data").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating the benchmark data directory");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// The serving configuration every serving phase runs: defaults,
    /// durable here, with EM and bound evaluation at `par`.
    ///
    /// The phases pass `Parallelism::Serial`, not the default `Auto`. At
    /// `Auto` every E- and M-step of a refit spawns and joins two threads;
    /// on the serving streams' small refits that costs more than it saves,
    /// and on a 2-vCPU VM it makes a replay 1.6-2.7x slower and its
    /// run-to-run spread 0.19-0.45 instead of 0.07-0.12. Answers are
    /// bit-identical either way; the traced `firehose` run replays at
    /// `Auto` too and reports what it costs.
    pub fn config(&self, par: Parallelism) -> ServeConfig {
        ServeConfig {
            em: EmConfig {
                parallelism: par,
                ..EmConfig::default()
            },
            parallelism: par,
            persist: Some(PersistConfig::at(&self.0)),
            ..ServeConfig::default()
        }
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // run still uses it.
        let _ = std::fs::remove_dir(".bench_data");
    }
}

/// `f64::to_bits` of every posterior: what two answers must share.
pub fn bits(posteriors: &[f64]) -> Vec<u64> {
    posteriors.iter().map(|p| p.to_bits()).collect()
}

/// What restarting over a data directory gave.
pub struct Recovery {
    /// Every restart came up and answered `reference`.
    pub matched: bool,
    /// Respawn → first answered query, one per restart.
    pub seconds: Vec<f64>,
    /// The first restart's recorder (what recovery replayed).
    pub first: MetricsSnapshot,
}

/// Restarts a durable tier `times` times: `spawn` respawns it over its
/// data directory. Each restart is timed from the spawn to the answer of
/// its first query, `posterior(probe)`; then its posteriors must equal
/// `reference` bit for bit, which is one output check. Only the first
/// restart is traced.
pub fn recover(
    spawn: impl Fn(Obs) -> Result<Service, ServeError>,
    probe: u32,
    reference: &[u64],
    times: usize,
    traced: bool,
    out: &mut Outcome,
) -> Recovery {
    let mut seconds = Vec::with_capacity(times);
    let mut first = MetricsSnapshot::default();
    let mut matched = true;
    for i in 0..times {
        let (obs, rec) = tracer(traced && i == 0);
        // Spawn, first query, posteriors, shutdown.
        out.attempted += 4;
        let t = Instant::now();
        let respawned = spawn(obs).and_then(|s| {
            s.client.posterior(probe)?;
            Ok(s)
        });
        let service = match respawned {
            Ok(s) => s,
            Err(e) => {
                out.failed += 4;
                out.notes.push(format!("recovery failed: {e}"));
                continue;
            }
        };
        seconds.push(secs(t));
        out.checks += 1;
        match service.client.posteriors() {
            Ok(p) => matched &= bits(&p) == reference,
            Err(_) => out.failed += 1,
        }
        if service.shutdown().is_err() {
            out.failed += 1;
        }
        if i == 0 {
            first = rec.snapshot();
        }
    }
    Recovery {
        matched: matched && seconds.len() == times,
        seconds,
        first,
    }
}

/// The layers every durable serving phase reports from its recorder
/// window `w`: EM inside the refits, the worker's ingest and queue, the
/// WAL and snapshots. Also the data directory's size, read from outside
/// before the restarts, and what the first restart replayed.
pub fn serve_ledger(w: &Window<'_>, disk_bytes: u64, recovery: &Recovery, l: &mut Layers) {
    l.insert("core.em.busy_s", w.sum("em.run.seconds"));
    l.insert("core.em.runs", w.count("em.runs_total"));
    l.insert("core.em.iterations", w.count("em.iterations_total"));
    l.insert("serve.ingest.busy_s", w.sum("serve.request.ingest.seconds"));
    l.insert("serve.queue.wait_s", w.sum("serve.queue.wait_seconds"));
    l.insert("persist.wal.appends", w.count("serve.wal.appends_total"));
    l.insert("persist.wal.fsyncs", w.count("serve.wal.fsyncs_total"));
    l.insert("persist.wal.bytes", w.count("serve.wal.bytes_total"));
    l.insert(
        "persist.snapshot.writes",
        w.count("serve.snapshot.writes_total"),
    );
    l.insert(
        "persist.snapshot.bytes",
        w.count("serve.snapshot.bytes_total"),
    );
    l.insert("persist.disk_bytes", disk_bytes as f64);
    l.insert(
        "persist.recovery.replayed_batches",
        recovery.first.counter("serve.wal.recovered_batches_total") as f64,
    );
}
