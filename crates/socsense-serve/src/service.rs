//! The channel-based query service: one owned worker thread, many
//! concurrent client handles.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use socsense_core::{BoundMethod, BoundResult, SenseError};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_obs::{MetricsSnapshot, Obs, Recorder, Tee};

use crate::api::{
    IngestAck, PersistConfig, ServeConfig, ServeError, ServeStats, ShardTopology, SourceRank,
};
use crate::durable::{DurableLog, WorkerSnapshot, CHECKPOINT_FORMAT};
use crate::slot::{rank_sources, Slot};

/// Renders a worker thread's panic payload for
/// [`ServeError::WorkerPanicked`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Rejects any of `ids` outside `0..m`, naming the check `what`.
pub(crate) fn check_assertions(ids: &[u32], m: u32, what: &'static str) -> Result<(), SenseError> {
    match ids.iter().find(|&&j| j >= m) {
        Some(&j) => Err(SenseError::DimensionMismatch {
            what,
            expected: m as usize,
            actual: j as usize,
        }),
        None => Ok(()),
    }
}

/// A typed request, one per client call. Shared verbatim by the
/// unsharded worker and the sharded router, so both backends present
/// the same client surface.
// detlint: protocol
pub(crate) enum Request {
    Ingest(Vec<TimedClaim>),
    Posterior(u32),
    Posteriors,
    TopSources(usize),
    Bound {
        assertions: Vec<u32>,
        method: Option<BoundMethod>,
    },
    Stats,
    Metrics,
    /// Partition map of the sharded tier; the unsharded worker has none.
    Topology,
    Shutdown,
    /// Test hook: panic inside the worker (exercises panic surfacing).
    #[cfg(test)]
    InjectPanic,
    /// Test hook: make the next WAL append fail (exercises the wedge).
    #[cfg(test)]
    FailNextAppend,
    /// Test hook: make the worker's next refit fail without touching
    /// the estimator (exercises the failed-refit path).
    #[cfg(test)]
    FailNextRefit,
    /// Test hook: ack on `ack`, then block until `release` yields —
    /// turns the worker into a deterministic "slow worker" so queue
    /// backpressure can be tested without timing races.
    #[cfg(test)]
    Park {
        ack: Sender<()>,
        release: Receiver<()>,
    },
}

impl Request {
    /// The request's latency histogram, `serve.request.<label>.seconds`
    /// (a static name, so answering a request formats nothing).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Request::Ingest(_) => "serve.request.ingest.seconds",
            Request::Posterior(_) => "serve.request.posterior.seconds",
            Request::Posteriors => "serve.request.posteriors.seconds",
            Request::TopSources(_) => "serve.request.top_sources.seconds",
            Request::Bound { .. } => "serve.request.bound.seconds",
            Request::Stats => "serve.request.stats.seconds",
            Request::Metrics => "serve.request.metrics.seconds",
            Request::Topology => "serve.request.topology.seconds",
            Request::Shutdown => "serve.request.shutdown.seconds",
            #[cfg(test)]
            Request::InjectPanic => "serve.request.inject_panic.seconds",
            #[cfg(test)]
            Request::FailNextAppend => "serve.request.fail_next_append.seconds",
            #[cfg(test)]
            Request::FailNextRefit => "serve.request.fail_next_refit.seconds",
            #[cfg(test)]
            Request::Park { .. } => "serve.request.park.seconds",
        }
    }
}

/// The worker's reply to one request.
pub(crate) enum Response {
    Ingested(IngestAck),
    Posterior(f64),
    Posteriors(Vec<f64>),
    TopSources(Vec<SourceRank>),
    Bound(BoundResult),
    Stats(ServeStats),
    Metrics(Box<MetricsSnapshot>),
    Topology(Box<ShardTopology>),
    ShuttingDown(ServeStats),
}

pub(crate) struct Envelope {
    pub(crate) req: Request,
    pub(crate) reply: Sender<Result<Response, ServeError>>,
    /// When the client enqueued the request (feeds
    /// `serve.queue.wait_seconds`).
    pub(crate) queued: Instant,
}

/// A cheap, cloneable client of a [`QueryService`].
///
/// Every method is a synchronous request/response round trip over the
/// service channel; handles can be cloned freely and moved to other
/// threads. After the service shuts down, every call returns
/// [`ServeError::Closed`].
#[derive(Debug, Clone)]
pub struct ServeHandle {
    tx: Sender<Envelope>,
    /// Requests sent but not yet picked up by the worker, shared by
    /// every handle of one service (feeds `serve.queue.depth`).
    depth: Arc<AtomicUsize>,
    /// Backpressure limit ([`ServeConfig::max_queue_depth`]; `0` =
    /// unlimited). Checked at the handle, so a shed request never even
    /// enters the queue.
    max_depth: usize,
}

impl ServeHandle {
    // Observation-only clock read: the queue-entry timestamp feeds the
    // queue-wait latency histogram, and no response reads it.
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn call(&self, req: Request) -> Result<Response, ServeError> {
        let (reply, rx) = mpsc::channel();
        let queued_depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        // Shed at the door when the queue is full. Shutdown is always
        // admitted — a client must be able to stop an overloaded
        // service.
        if self.max_depth > 0 && queued_depth > self.max_depth && !matches!(req, Request::Shutdown)
        {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        let sent = self.tx.send(Envelope {
            req,
            reply,
            queued: Instant::now(),
        });
        if sent.is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError::Closed);
        }
        // A dropped reply sender means the worker exited (shutdown drain
        // finished, or it died) before answering.
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Test-only: enqueue a request without waiting for the reply (and
    /// without the backpressure shed), returning the raw reply
    /// receiver. Used to fill the queue while the worker is parked —
    /// `call` would block on the answer.
    #[cfg(test)]
    // Observation-only queue timestamp, as in `call`.
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn raw_send(&self, req: Request) -> Receiver<Result<Response, ServeError>> {
        let (reply, rx) = mpsc::channel();
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(Envelope {
                req,
                reply,
                queued: Instant::now(),
            })
            // detlint: allow(P1) -- test-only helper: a refused send is a broken test setup, so panicking is the honest failure
            .expect("service accepts the raw envelope");
        rx
    }

    /// Appends a batch of claims to the service's log and advances the
    /// warm-start chain with one refit before acking.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sense`] when a claim is out of range (the batch is
    /// rejected atomically) or the refit fails — the claims stay
    /// ingested, the warm-start state survives, and reads keep serving
    /// the last good fit; [`ServeError::Closed`] when the service is
    /// gone.
    pub fn ingest(&self, batch: Vec<TimedClaim>) -> Result<IngestAck, ServeError> {
        match self.call(Request::Ingest(batch))? {
            Response::Ingested(ack) => Ok(ack),
            _ => Err(ServeError::Protocol("expected Ingested")),
        }
    }

    /// The current truth posterior `P(C_j = 1 | ·)` of one assertion,
    /// from the last chain refit (`0.5` before the first). Reads never
    /// refit.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sense`] for an out-of-range assertion id;
    /// [`ServeError::Closed`] when the service is gone.
    pub fn posterior(&self, assertion: u32) -> Result<f64, ServeError> {
        match self.call(Request::Posterior(assertion))? {
            Response::Posterior(p) => Ok(p),
            _ => Err(ServeError::Protocol("expected Posterior")),
        }
    }

    /// The current truth posterior of every assertion, in assertion
    /// order.
    ///
    /// # Errors
    ///
    /// As [`posterior`](Self::posterior).
    pub fn posteriors(&self) -> Result<Vec<f64>, ServeError> {
        match self.call(Request::Posteriors)? {
            Response::Posteriors(p) => Ok(p),
            _ => Err(ServeError::Protocol("expected Posteriors")),
        }
    }

    /// The `k` most reliable sources under the current fit, best first
    /// (ties broken toward the lower source id).
    ///
    /// # Errors
    ///
    /// As [`posterior`](Self::posterior).
    pub fn top_sources(&self, k: usize) -> Result<Vec<SourceRank>, ServeError> {
        match self.call(Request::TopSources(k))? {
            Response::TopSources(r) => Ok(r),
            _ => Err(ServeError::Protocol("expected TopSources")),
        }
    }

    /// Mean Bayes-risk bound over `assertions` (every assertion when
    /// empty) under the current fit, using `method` or else
    /// [`BoundMethod::default`].
    ///
    /// # Errors
    ///
    /// As [`posterior`](Self::posterior), plus whatever the bound
    /// evaluation reports (e.g. too many sources for an exact bound).
    /// Before the first refit every assertion contributes the prior coin
    /// flip.
    pub fn bound(
        &self,
        assertions: Vec<u32>,
        method: Option<BoundMethod>,
    ) -> Result<BoundResult, ServeError> {
        match self.call(Request::Bound { assertions, method })? {
            Response::Bound(b) => Ok(b),
            _ => Err(ServeError::Protocol("expected Bound")),
        }
    }

    /// Current operating statistics.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] when the service is gone.
    pub fn stats(&self) -> Result<ServeStats, ServeError> {
        match self.call(Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ServeError::Protocol("expected Stats")),
        }
    }

    /// A snapshot of the service's metrics recorder: per-request-type
    /// latency histograms (`serve.request.<type>.seconds`), queue
    /// wait/depth, refit counters, plus the `em.*`, `stream.*`, and
    /// `bound.*` metrics of the work the service ran.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] when the service is gone.
    pub fn metrics(&self) -> Result<MetricsSnapshot, ServeError> {
        match self.call(Request::Metrics)? {
            Response::Metrics(m) => Ok(*m),
            _ => Err(ServeError::Protocol("expected Metrics")),
        }
    }
}

/// A new recorder for a service's own metrics, and the emission handle
/// that feeds it — teed with `extra`'s sink when one is attached.
pub(crate) fn recorded(extra: &Obs) -> (Arc<Recorder>, Obs) {
    let rec = Arc::new(Recorder::new());
    let obs = match extra.sink() {
        Some(sink) => Obs::new(Arc::new(Tee::new(rec.clone(), sink))),
        None => Obs::new(rec.clone()),
    };
    (rec, obs)
}

/// The single-threaded owner behind a service's request channel: the
/// serial [`Worker`] or the sharded router. [`FrontEnd::spawn`] runs
/// either one through the same pickup/answer loop.
pub(crate) trait Backend {
    /// Where the loop's queue and latency metrics go.
    fn obs(&self) -> &Obs;
    /// Books one picked-up request; `waiting` requests are still queued
    /// behind it.
    fn picked_up(&mut self, waiting: usize);
    /// Answers one request; `Shutdown` answers with the final
    /// statistics.
    fn dispatch(&mut self, req: Request) -> Result<Response, ServeError>;
    /// Why the backend is wedged, if an ingest failed half-way (see
    /// [`ServeError::Wedged`]): every later request but `Shutdown` is
    /// refused with it.
    fn wedged(&self) -> Option<&str>;
    /// Stops whatever the backend owns once the queue is drained. A
    /// durable backend first writes its shutdown checkpoint when one is
    /// due ([`DurableLog::shutdown_due`]) and nothing is wedged, so a
    /// planned restart replays no WAL batch. Reports a thread that died
    /// by panic, else a failed checkpoint write.
    fn stop(&mut self) -> Result<(), ServeError>;
}

/// The pickup/answer loop. On `Shutdown`, everything already queued is
/// still answered (senders arriving after the channel closes get
/// `Closed`) and the backend stops before the shutdown reply goes out,
/// so a failed shutdown checkpoint, or a thread the backend joined that
/// died by panic, surfaces in the reply instead of being swallowed. A
/// client that gave up on its reply is not an error.
fn serve<B: Backend>(mut backend: B, rx: Receiver<Envelope>, depth: &AtomicUsize) {
    while let Ok(Envelope { req, reply, queued }) = rx.recv() {
        let shutting_down = matches!(req, Request::Shutdown);
        let result = answer(&mut backend, req, queued, depth);
        if shutting_down {
            while let Ok(Envelope { req, reply, queued }) = rx.try_recv() {
                let _ = reply.send(answer(&mut backend, req, queued, depth));
            }
            let _ = reply.send(backend.stop().and(result));
            return;
        }
        let _ = reply.send(result);
    }
    // All handles (and the service) dropped without a shutdown request:
    // nothing left to answer, and nobody to report to.
    let _ = backend.stop();
}

/// Answers one picked-up request.
fn answer<B: Backend>(
    backend: &mut B,
    req: Request,
    queued: Instant,
    depth: &AtomicUsize,
) -> Result<Response, ServeError> {
    // The request leaves the queue: record how long it sat and how many
    // are still behind it.
    let waiting = depth.fetch_sub(1, Ordering::Relaxed) - 1;
    backend.picked_up(waiting);
    let obs = backend.obs();
    obs.gauge("serve.queue.depth", waiting as f64);
    obs.observe("serve.queue.wait_seconds", queued.elapsed().as_secs_f64());
    obs.counter("serve.requests_total", 1);
    let timer = obs.timer(req.label());
    // A wedged backend still shuts down, joining what it owns.
    let refusal = backend
        .wedged()
        .filter(|_| !matches!(req, Request::Shutdown));
    let result = match refusal {
        Some(why) => Err(ServeError::Wedged(why.into())),
        None => backend.dispatch(req),
    };
    timer.stop();
    if result.is_err() {
        backend.obs().counter("serve.request_errors_total", 1);
    }
    result
}

/// The client-facing half of both tiers: the request channel, the queue
/// depth every handle shares, the backpressure limit, and the thread
/// running the pickup/answer loop. Dropping it without
/// [`shutdown`](Self::shutdown) still drains the queue and joins the
/// thread.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    tx: Sender<Envelope>,
    /// Requests sent but not yet picked up (feeds `serve.queue.depth`).
    depth: Arc<AtomicUsize>,
    /// [`ServeConfig::max_queue_depth`].
    max_depth: usize,
    thread: Option<JoinHandle<()>>,
}

impl FrontEnd {
    /// Starts `backend`'s pickup/answer loop on a thread named `name`.
    pub(crate) fn spawn<B: Backend + Send + 'static>(
        name: &str,
        backend: B,
        max_depth: usize,
    ) -> Self {
        let (tx, rx) = mpsc::channel::<Envelope>();
        let depth = Arc::new(AtomicUsize::new(0));
        let loop_depth = Arc::clone(&depth);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || serve(backend, rx, &loop_depth))
            // detlint: allow(P1) -- construction-time: no client exists yet, so a failed spawn panics the caller, not a worker others wait on
            .expect("spawning the service thread");
        Self {
            tx,
            depth,
            max_depth,
            thread: Some(thread),
        }
    }

    pub(crate) fn handle(&self) -> ServeHandle {
        ServeHandle {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
            max_depth: self.max_depth,
        }
    }

    /// Sends `Shutdown` and joins the thread.
    pub(crate) fn shutdown(&mut self) -> Result<ServeStats, ServeError> {
        let stats = match self.handle().call(Request::Shutdown) {
            Ok(Response::ShuttingDown(stats)) => Ok(stats),
            Ok(_) => Err(ServeError::Protocol("expected ShuttingDown")),
            Err(e) => Err(e),
        };
        if let Some(thread) = self.thread.take() {
            // A panicked thread must not be swallowed: it outranks
            // whatever the (necessarily failed) shutdown call returned.
            if let Err(payload) = thread.join() {
                return Err(ServeError::WorkerPanicked(panic_message(payload)));
            }
        }
        stats
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        if self.thread.is_some() {
            // Nobody is left to receive the error; a panic or a failed
            // shutdown checkpoint still gets reported rather than
            // vanishing with the service.
            match self.shutdown() {
                Err(ServeError::WorkerPanicked(what)) => {
                    eprintln!("socsense-serve: service thread panicked: {what}");
                }
                Err(e @ ServeError::Persist(_)) => {
                    eprintln!("socsense-serve: shutdown checkpoint failed: {e}");
                }
                _ => {}
            }
        }
    }
}

/// A long-lived query service owning one warm
/// [`StreamingEstimator`](socsense_core::StreamingEstimator) on a
/// dedicated worker thread.
///
/// See the crate docs for the ownership model and refit policy. Dropping
/// the service without calling [`shutdown`](Self::shutdown) still drains
/// the queue, writes the shutdown checkpoint and joins the worker.
#[derive(Debug)]
pub struct QueryService {
    front: FrontEnd,
}

impl QueryService {
    /// Spawns the worker thread over `n` sources and `m` assertions with
    /// the given follow relation.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sense`] for an invalid shape (`n == 0`, `m == 0`, a
    /// graph over a different source count) or an invalid EM or refit
    /// configuration.
    pub fn spawn(
        n: u32,
        m: u32,
        graph: FollowerGraph,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        Self::spawn_with_obs(n, m, graph, config, Obs::none())
    }

    /// As [`spawn`](Self::spawn), additionally teeing every metric the
    /// worker emits into `extra` (e.g. a caller-owned exporter). The
    /// worker always keeps its own in-memory recorder — the source of
    /// [`ServeHandle::metrics`] snapshots — whether or not an extra
    /// sink is attached; metrics are observation-only and never change
    /// served numbers.
    ///
    /// # Errors
    ///
    /// See [`spawn`](Self::spawn); additionally
    /// [`ServeError::Persist`] when [`ServeConfig::persist`] is set and
    /// the durable state cannot be opened or recovered. Recovery — the
    /// newest snapshot plus a WAL-tail replay — happens here, before
    /// the worker thread serves its first request, and is timed on
    /// `serve.recovery.seconds`.
    pub fn spawn_with_obs(
        n: u32,
        m: u32,
        graph: FollowerGraph,
        config: ServeConfig,
        extra: Obs,
    ) -> Result<Self, ServeError> {
        let (rec, obs) = recorded(&extra);
        let mut worker = Worker {
            slot: Slot::new(n, m, graph, &config, obs.clone())?,
            requests_served: 0,
            rec,
            obs,
            durable: None,
            seq: 0,
            wedged: None,
        };
        if let Some(pcfg) = &config.persist {
            worker.recover(pcfg)?;
        }
        Ok(Self {
            front: FrontEnd::spawn("socsense-serve", worker, config.max_queue_depth),
        })
    }

    /// A new client handle. Handles stay valid until shutdown.
    pub fn handle(&self) -> ServeHandle {
        self.front.handle()
    }

    /// Shuts the service down gracefully: requests already queued are
    /// still answered (requests arriving later get
    /// [`ServeError::Closed`]), then a durable worker writes its
    /// shutdown checkpoint (see [`PersistConfig::snapshot_every`]), and
    /// the worker exits and is joined.
    ///
    /// Returns the final operating statistics, taken at the moment the
    /// shutdown request was processed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] when the worker was already gone;
    /// [`ServeError::WorkerPanicked`] when the worker thread died by
    /// panic (with its payload) instead of exiting cleanly;
    /// [`ServeError::Persist`] when the shutdown checkpoint could not be
    /// written (the data directory still recovers from the previous
    /// checkpoint and the WAL).
    pub fn shutdown(mut self) -> Result<ServeStats, ServeError> {
        self.front.shutdown()
    }
}

/// The serial tier's backend: one [`Slot`] over the global world.
struct Worker {
    slot: Slot,
    requests_served: u64,
    /// The service's own recorder; `Metrics` requests snapshot it.
    rec: Arc<Recorder>,
    /// Emission handle: the recorder, possibly teed with a caller sink.
    obs: Obs,
    /// Durability engine, when [`ServeConfig::persist`] is set.
    durable: Option<DurableLog>,
    /// Ingest batches accepted, numbering the WAL records (monotonic
    /// across restarts with persistence).
    seq: u64,
    /// Set when a WAL append failed: the slot holds a batch the WAL
    /// lacks, so every later request but shutdown fails fast with this
    /// message, and no checkpoint makes the un-acked batch durable. A
    /// restart clears the wedge by recovering the logged prefix.
    wedged: Option<String>,
}

impl Worker {
    /// Restores whatever a previous service left under the data
    /// directory: install the newest snapshot (timed on
    /// `serve.recovery.restore.seconds`), then replay the WAL tail
    /// through the normal ingest path. Runs before the worker thread
    /// exists, so the first client request already sees the recovered
    /// state.
    fn recover(&mut self, pcfg: &PersistConfig) -> Result<(), ServeError> {
        let _timer = self.obs.timer("serve.recovery.seconds");
        let (log, recovered) = DurableLog::open::<WorkerSnapshot>(pcfg, &self.obs, false)?;
        if let Some((seq, snap)) = recovered.snapshot {
            let restore = self.obs.timer("serve.recovery.restore.seconds");
            self.slot.restore(&snap.slot)?;
            restore.stop();
            self.requests_served = snap.requests_served;
            self.seq = seq;
        }
        for record in recovered.records {
            self.seq = record.seq;
            self.slot.ingest(&record.claims)?;
            // Refit errors during replay mirror the live path: the
            // original run surfaced them to the client and kept the
            // claims ingested, so replay keeps the claims and moves on.
            let _ = self.slot.refit(self.seq, 0);
        }
        self.durable = Some(log);
        Ok(())
    }

    /// Writes a checkpoint at the current batch when `due` says so. The
    /// WAL is truncated afterwards: the snapshot absorbed it, so recovery
    /// replays only the tail since this point.
    fn checkpoint_if(&mut self, due: fn(&DurableLog, u64) -> bool) -> Result<(), ServeError> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        if !due(d, self.seq) {
            return Ok(());
        }
        let snap = WorkerSnapshot {
            format: CHECKPOINT_FORMAT,
            slot: self.slot.checkpoint(),
            requests_served: self.requests_served,
        };
        d.write_snapshot(self.seq, &snap, true, &self.obs)
    }

    fn stats(&self) -> ServeStats {
        self.slot
            .stats()
            .serve_stats(self.slot.claim_count(), self.requests_served)
    }
}

impl Backend for Worker {
    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn picked_up(&mut self, _waiting: usize) {
        self.requests_served += 1;
    }

    fn dispatch(&mut self, req: Request) -> Result<Response, ServeError> {
        match req {
            Request::Ingest(batch) => {
                self.slot.ingest(&batch)?;
                // Log the accepted batch before the refit work and the
                // ack — with `fsync_every = 1`, an acked batch is on
                // disk. A rejected batch (the `?` above) logs nothing.
                // A failed append wedges the worker: the slot already
                // holds the batch, and the next append would leave a gap
                // that recovery refuses.
                self.seq += 1;
                if let Some(d) = &mut self.durable {
                    if let Err(e) = d.append(self.seq, &batch, &self.obs) {
                        self.wedged = Some(e.to_string());
                        self.obs.counter("serve.worker.wedged_total", 1);
                        return Err(e);
                    }
                }
                self.slot.refit(self.seq, 0)?;
                self.checkpoint_if(DurableLog::should_snapshot)?;
                Ok(Response::Ingested(IngestAck {
                    total_claims: self.slot.claim_count(),
                }))
            }
            Request::Posterior(j) => {
                let m = self.slot.assertion_count();
                check_assertions(&[j], m, "query assertion id vs m")?;
                Ok(Response::Posterior(self.slot.posteriors()[j as usize]))
            }
            Request::Posteriors => Ok(Response::Posteriors(self.slot.posteriors().into_owned())),
            Request::TopSources(k) => {
                let (z, params) = self.slot.sources();
                let entries = (0u32..).zip(params.iter()).map(|(i, s)| (i, *s, z));
                Ok(Response::TopSources(rank_sources(entries, k)))
            }
            Request::Bound { assertions, method } => {
                let m = self.slot.assertion_count();
                let assertions = if assertions.is_empty() {
                    (0..m).collect()
                } else {
                    assertions
                };
                check_assertions(&assertions, m, "bound assertion id vs m")?;
                let method = method.unwrap_or_default();
                Ok(Response::Bound(self.slot.bound(&assertions, &method)?))
            }
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::Metrics => Ok(Response::Metrics(Box::new(self.rec.snapshot()))),
            // Only the sharded router keeps a partition map; the
            // unsharded worker cannot answer this (and no public
            // `ServeHandle` method sends it).
            Request::Topology => Err(ServeError::Protocol(
                "topology is only served by the sharded tier",
            )),
            Request::Shutdown => Ok(Response::ShuttingDown(self.stats())),
            #[cfg(test)]
            Request::InjectPanic => panic!("injected worker panic"),
            #[cfg(test)]
            Request::FailNextAppend => {
                if let Some(d) = &mut self.durable {
                    d.fail_next_append = true;
                }
                Ok(Response::Stats(self.stats()))
            }
            #[cfg(test)]
            Request::FailNextRefit => {
                self.slot.fail_next_refit = true;
                Ok(Response::Stats(self.stats()))
            }
            #[cfg(test)]
            Request::Park { ack, release } => {
                let _ = ack.send(());
                let _ = release.recv();
                Ok(Response::Stats(self.stats()))
            }
        }
    }

    fn wedged(&self) -> Option<&str> {
        self.wedged.as_deref()
    }

    /// Writes the shutdown checkpoint when one is due and the worker is
    /// not wedged.
    fn stop(&mut self) -> Result<(), ServeError> {
        match self.wedged {
            None => self.checkpoint_if(DurableLog::shutdown_due),
            Some(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_over(n: u32, m: u32) -> QueryService {
        QueryService::spawn(n, m, FollowerGraph::new(n), ServeConfig::default()).unwrap()
    }

    #[test]
    fn spawn_validates_shape() {
        assert!(matches!(
            QueryService::spawn(0, 2, FollowerGraph::new(0), ServeConfig::default()),
            Err(ServeError::Sense(SenseError::EmptyData))
        ));
        assert!(matches!(
            QueryService::spawn(3, 2, FollowerGraph::new(4), ServeConfig::default()),
            Err(ServeError::Sense(SenseError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn bad_batch_is_rejected_atomically() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        let err = client
            .ingest(vec![TimedClaim::new(0, 0, 1), TimedClaim::new(7, 0, 2)])
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Sense(SenseError::DimensionMismatch { .. })
        ));
        let ack = client.ingest(vec![TimedClaim::new(0, 0, 1)]).unwrap();
        assert_eq!(ack.total_claims, 1, "bad batch must not have landed");
        svc.shutdown().unwrap();
    }

    #[test]
    fn out_of_range_posterior_query_is_rejected() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        client.ingest(vec![TimedClaim::new(0, 0, 1)]).unwrap();
        assert!(matches!(
            client.posterior(5),
            Err(ServeError::Sense(SenseError::DimensionMismatch { .. }))
        ));
        svc.shutdown().unwrap();
    }

    #[test]
    fn calls_after_shutdown_report_closed() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        client.ingest(vec![TimedClaim::new(0, 0, 1)]).unwrap();
        svc.shutdown().unwrap();
        assert!(matches!(client.stats(), Err(ServeError::Closed)));
        assert!(matches!(client.posterior(0), Err(ServeError::Closed)));
    }

    #[test]
    fn delta_mode_counts_scoped_refits_and_surfaces_metrics() {
        use socsense_core::{DeltaConfig, RefitMode};
        let svc = QueryService::spawn(
            4,
            6,
            FollowerGraph::new(4),
            ServeConfig {
                // Thresholds out of reach: after the seeding full refit,
                // every ingest-driven refit must run scoped.
                refit_mode: RefitMode::Delta(DeltaConfig {
                    max_drift: 1e9,
                    max_batch_fraction: 1e9,
                    max_divergence: 1e9,
                    ..DeltaConfig::default()
                }),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let client = svc.handle();
        for t in 0..6u64 {
            client
                .ingest(vec![TimedClaim::new((t % 4) as u32, (t % 6) as u32, t + 1)])
                .unwrap();
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.chain_refits, 6);
        assert_eq!(
            stats.delta_refits, 5,
            "first refit seeds, the rest are scoped"
        );
        assert_eq!(stats.fallback_refits, 0);
        assert!(stats.last_touched_assertions.unwrap_or(usize::MAX) <= 6);
        assert!(stats.last_touched_sources.unwrap_or(usize::MAX) <= 4);
        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.counter("serve.refit.delta_total"), 5);
        assert_eq!(metrics.counter("stream.refit.delta_total"), 5);
        assert!(metrics
            .histogram("stream.delta.touched_assertions")
            .is_some());
        svc.shutdown().unwrap();
    }

    #[test]
    fn spawn_rejects_invalid_delta_config() {
        use socsense_core::{DeltaConfig, EmConfig, RefitMode};
        let bad_delta = ServeConfig {
            refit_mode: RefitMode::Delta(DeltaConfig {
                max_drift: -1.0,
                ..DeltaConfig::default()
            }),
            ..ServeConfig::default()
        };
        // An EM config every refit would reject: refused at spawn, not
        // left to fail each ingest behind neutral answers.
        let bad_em = ServeConfig {
            em: EmConfig {
                max_iters: 0,
                ..EmConfig::default()
            },
            ..ServeConfig::default()
        };
        for cfg in [bad_delta, bad_em] {
            assert!(matches!(
                QueryService::spawn(2, 2, FollowerGraph::new(2), cfg.clone()),
                Err(ServeError::Sense(SenseError::BadConfig { .. }))
            ));
            assert!(matches!(
                crate::ShardedService::spawn(2, 2, FollowerGraph::new(2), cfg, 2),
                Err(ServeError::Sense(SenseError::BadConfig { .. }))
            ));
        }
    }

    #[test]
    fn drop_without_shutdown_joins_the_worker() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        client.ingest(vec![TimedClaim::new(0, 0, 1)]).unwrap();
        drop(svc);
        assert!(matches!(client.stats(), Err(ServeError::Closed)));
    }

    #[test]
    fn over_limit_requests_are_shed_with_overloaded() {
        let svc = QueryService::spawn(
            2,
            2,
            FollowerGraph::new(2),
            ServeConfig {
                max_queue_depth: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let client = svc.handle();
        // Park the worker so queued requests stay queued.
        let (ack_tx, ack_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let parked = client.raw_send(Request::Park {
            ack: ack_tx,
            release: release_rx,
        });
        ack_rx.recv().unwrap();
        // Fill the queue to the limit; the reply receivers stay alive so
        // the worker's answers have somewhere to go.
        let queued: Vec<_> = (0..2).map(|_| client.raw_send(Request::Stats)).collect();
        assert!(matches!(client.stats(), Err(ServeError::Overloaded)));
        release_tx.send(()).unwrap();
        for rx in queued {
            assert!(matches!(rx.recv().unwrap(), Ok(Response::Stats(_))));
        }
        assert!(matches!(parked.recv().unwrap(), Ok(Response::Stats(_))));
        // Once the queue drained, the same request is admitted again.
        client.stats().unwrap();
        svc.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_admitted_past_a_full_queue() {
        let svc = QueryService::spawn(
            2,
            2,
            FollowerGraph::new(2),
            ServeConfig {
                max_queue_depth: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let client = svc.handle();
        // Inflate the shared depth gauge past the limit without queueing
        // anything: ordinary requests shed, shutdown still goes through.
        client.depth.store(5, Ordering::Relaxed);
        assert!(matches!(client.stats(), Err(ServeError::Overloaded)));
        svc.shutdown().unwrap();
    }

    /// A durable configuration over a fresh `dir`, checkpointing every
    /// fourth batch.
    fn persisted_at(dir: &std::path::Path) -> ServeConfig {
        ServeConfig {
            persist: Some(PersistConfig {
                data_dir: dir.to_path_buf(),
                fsync_every: 1,
                snapshot_every: 4,
            }),
            ..ServeConfig::default()
        }
    }

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "socsense-serve-worker-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Batch `k` of a small stream over 3 sources and 2 assertions.
    fn batch(k: u64) -> Vec<TimedClaim> {
        vec![TimedClaim::new((k % 3) as u32, (k % 2) as u32, k + 1)]
    }

    fn snapshot_seqs(dir: &std::path::Path) -> Vec<u64> {
        socsense_persist::SnapshotStore::open(&dir.join("snapshots"))
            .unwrap()
            .sequences()
            .unwrap()
    }

    #[test]
    fn failed_wal_append_wedges_the_worker_and_skips_the_checkpoint() {
        let dir = fresh_dir("wedge");
        let svc = QueryService::spawn(3, 2, FollowerGraph::new(3), persisted_at(&dir)).unwrap();
        let client = svc.handle();
        for k in 0..5 {
            client.ingest(batch(k)).unwrap();
        }
        assert!(client
            .raw_send(Request::FailNextAppend)
            .recv()
            .unwrap()
            .is_ok());
        // The slot took batch 5 but the WAL did not: the ingest fails,
        // and so does every later request but shutdown.
        assert!(matches!(
            client.ingest(batch(5)),
            Err(ServeError::Persist(_))
        ));
        assert!(matches!(
            client.ingest(batch(5)),
            Err(ServeError::Wedged(_))
        ));
        assert!(matches!(client.posterior(0), Err(ServeError::Wedged(_))));
        svc.shutdown().unwrap();
        assert_eq!(
            snapshot_seqs(&dir),
            vec![4],
            "a wedged worker writes no shutdown checkpoint"
        );

        // The WAL holds batches 1–5 with no gap: a restart recovers the
        // acked prefix, and the retried batch lands as it did on a
        // control that never failed.
        let restarted =
            QueryService::spawn(3, 2, FollowerGraph::new(3), persisted_at(&dir)).unwrap();
        let control = service_over(3, 2);
        for k in 0..6 {
            control.handle().ingest(batch(k)).unwrap();
        }
        let metrics = restarted.handle().metrics().unwrap();
        assert_eq!(metrics.counter("serve.wal.recovered_batches_total"), 1);
        restarted.handle().ingest(batch(5)).unwrap();
        let bits = |p: Vec<f64>| p.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(restarted.handle().posteriors().unwrap()),
            bits(control.handle().posteriors().unwrap())
        );
        restarted.shutdown().unwrap();
        control.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A refit that fails leaves its batch ingested and the warm-start
    /// chain where it was: reads keep serving the last good fit, and the
    /// next refit covers the failed batch's claims too. No restart here:
    /// replay would refit after the failed batch, since an injected
    /// failure is not a function of the data.
    #[test]
    fn failed_refit_serves_the_last_good_fit_until_the_next_refit() {
        let (n, m) = (4, 3);
        let spawn = || {
            let mut g = FollowerGraph::new(n);
            g.add_follow(1, 0);
            g.add_follow(3, 2);
            QueryService::spawn(n, m, g, ServeConfig::default()).unwrap()
        };
        let claims = |raw: &[(u32, u32, u64)]| -> Vec<TimedClaim> {
            let claim = |&(s, j, t): &(u32, u32, u64)| TimedClaim::new(s, j, t);
            raw.iter().map(claim).collect()
        };
        let a = claims(&[(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 2, 4), (0, 2, 5)]);
        let b = claims(&[(2, 0, 6), (3, 1, 7), (1, 2, 8)]);
        let c = claims(&[(0, 1, 9), (2, 2, 10)]);
        // Every served bit of the posteriors and the source ranking.
        let answers = |client: &ServeHandle| {
            let posteriors = client.posteriors().unwrap();
            let ranks = client.top_sources(n as usize).unwrap();
            let ranks: Vec<(u32, u64, [u64; 4])> = ranks
                .iter()
                .map(|r| {
                    let s = r.params;
                    let params = [s.a, s.b, s.f, s.g].map(f64::to_bits);
                    (r.source, r.precision.to_bits(), params)
                })
                .collect();
            (
                posteriors.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                ranks,
            )
        };

        let svc = spawn();
        let client = svc.handle();
        client.ingest(a.clone()).unwrap();
        let after_a = answers(&client);
        assert!(client
            .raw_send(Request::FailNextRefit)
            .recv()
            .unwrap()
            .is_ok());
        assert!(matches!(
            client.ingest(b.clone()),
            Err(ServeError::Sense(_))
        ));
        let stats = client.stats().unwrap();
        assert_eq!((stats.failed_refits, stats.chain_refits), (1, 1));
        assert_eq!(stats.total_claims, a.len() + b.len(), "B stays ingested");
        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.counter("serve.refit.failed_total"), 1);
        assert_eq!(answers(&client), after_a);

        client.ingest(c.clone()).unwrap();
        let control = spawn();
        control.handle().ingest(a).unwrap();
        control.handle().ingest([b, c].concat()).unwrap();
        let after_c = answers(&client);
        assert_eq!(after_c, answers(&control.handle()));
        assert_ne!(after_c.0, after_a.0, "C's refit moved the fit");
        let stats = client.stats().unwrap();
        assert_eq!((stats.failed_refits, stats.chain_refits), (1, 2));
        svc.shutdown().unwrap();
        control.shutdown().unwrap();
    }

    #[test]
    fn panicked_worker_writes_no_shutdown_checkpoint() {
        let dir = fresh_dir("panic");
        let svc = QueryService::spawn(3, 2, FollowerGraph::new(3), persisted_at(&dir)).unwrap();
        let client = svc.handle();
        for k in 0..5 {
            client.ingest(batch(k)).unwrap();
        }
        assert!(client.raw_send(Request::InjectPanic).recv().is_err());
        assert!(matches!(svc.shutdown(), Err(ServeError::WorkerPanicked(_))));
        assert_eq!(snapshot_seqs(&dir), vec![4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_panic_surfaces_from_shutdown() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        let rx = client.raw_send(Request::InjectPanic);
        // The worker died mid-request: the reply channel just closes.
        assert!(rx.recv().is_err());
        match svc.shutdown() {
            Err(ServeError::WorkerPanicked(what)) => {
                assert!(what.contains("injected worker panic"), "payload: {what}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}
