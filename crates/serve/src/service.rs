//! The long-lived [`ElfService`]: sharded workers, bounded job admission,
//! the model registry, and the client-facing [`ServiceHandle`] channel API.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use elf_aig::Aig;
use elf_core::{
    CutCache, CutCacheConfig, CutCacheStats, ElfClassifier, ElfOptions, Flow, FlowStats,
    ParseFlowError, VerifyMode,
};
use elf_obs::metrics::{Counter, Gauge, Histogram, Registry};
use elf_obs::names;
use elf_par::Parallelism;

use crate::queue::{AdmissionPolicy, JobQueue, PushError};
use crate::registry::{ModelId, ModelRegistry};

/// Configuration of an [`ElfService`].
///
/// `shards` defaults from the environment: it follows the `ELF_THREADS`
/// convention of the rest of the workspace (via [`Parallelism::default`]).
/// Every job runs its flow under [`ElfService::options`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of long-lived shard workers executing jobs.
    pub shards: Parallelism,
    /// Most jobs allowed to wait in the admission queue at once (clamped to
    /// at least 1).  Submissions against a full queue follow
    /// [`ServeConfig::admission`].  Bounding the queue is what keeps a
    /// traffic burst from turning into unbounded memory growth.
    pub queue_bound: usize,
    /// What a submission does when the queue is full: block for a slot
    /// (the default — backpressure, nothing shed) or reject immediately.
    /// Rejected submissions return [`SubmitError::Overloaded`] with the
    /// circuit handed back and are counted in [`ServiceStats`].
    pub admission: AdmissionPolicy,
    /// The correctness gate: SAT-prove that every served job preserved its
    /// circuit's function ([`VerifyMode::Final`] — one check per job) or
    /// that every stage did ([`VerifyMode::PerStage`]).  The verdict rides
    /// in the job's [`FlowStats::verify`]; off by default.
    pub verify: VerifyMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: Parallelism::default(),
            queue_bound: 1024,
            admission: AdmissionPolicy::Block,
            verify: VerifyMode::Off,
        }
    }
}

/// The flow options of every served job: a sequential engine inside the job
/// (the shards *are* the parallelism, and two nested fan-outs would
/// oversubscribe the cores) and the default cut cache, which configures the
/// **service-lifetime** NPN-canonical factoring cache every job shares.
fn job_options() -> ElfOptions {
    ElfOptions {
        parallelism: Parallelism::sequential(),
        cut_cache: CutCacheConfig::default(),
    }
}

/// Identifier of one submitted job, unique within its service.
///
/// Ids are handed out in submission order across all handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// The raw id value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Per-job serving statistics around the flow's own [`FlowStats`].
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// The classifier version this job was pruned with (pinned at
    /// submission; registry swaps never affect an admitted job).
    pub model: ModelId,
    /// Jobs still waiting in the admission queue when this job was picked up.
    pub queue_depth: usize,
    /// Cut factorings this job resolved from the service-lifetime
    /// NPN-canonical cache (work an earlier job — or an earlier cut of this
    /// one — already paid for).  Zero when the cache is disabled.
    pub cache_hits: u64,
    /// Cut factorings this job computed and (capacity permitting) published
    /// to the shared cache.  Zero when the cache is disabled.
    pub cache_misses: u64,
    /// Time from submission to a shard worker picking the job up.
    pub queued_time: Duration,
    /// Time the shard worker spent executing the flow.
    pub service_time: Duration,
    /// Statistics of the executed flow: AND counts before and after, stage
    /// timings and prune counts, and the equivalence-checking outcome under
    /// [`ServeConfig::verify`].  All-zero on failure placeholders.
    pub flow: FlowStats,
}

impl ServeStats {
    /// The all-zero statistics a failure placeholder response carries.
    fn placeholder(model: ModelId) -> Self {
        ServeStats {
            model,
            queue_depth: 0,
            cache_hits: 0,
            cache_misses: 0,
            queued_time: Duration::ZERO,
            service_time: Duration::ZERO,
            flow: FlowStats::default(),
        }
    }
}

/// One finished job: the optimized circuit plus its serving statistics.
#[derive(Debug, Clone)]
pub struct JobResponse {
    /// The id returned by the matching [`ServiceHandle::submit`].
    pub job_id: JobId,
    /// The optimized circuit.  When [`JobResponse::failed`] is set, the
    /// contents are unspecified (a partially transformed network, or empty)
    /// and must not be used.
    pub aig: Aig,
    /// Serving statistics of this job.
    pub stats: ServeStats,
    /// `true` when the worker panicked (or died) while executing this job —
    /// an internal bug, e.g. an operator invariant violation, never a normal
    /// outcome.  The response is still delivered so no client blocks
    /// forever on a job that cannot complete; check this flag before using
    /// [`JobResponse::aig`].
    pub failed: bool,
}

/// Why a submission was rejected.  Every variant hands the submitted
/// circuit back, so a rejected submit never costs the caller its `Aig`:
/// retry later, route to a fallback, or drop it — the caller decides.
///
/// The circuit is boxed so the `Result` of a submit stays pointer-sized on
/// the happy path; [`SubmitError::circuit`] and [`SubmitError::into_circuit`]
/// hide the box.
#[derive(Debug, Clone)]
pub enum SubmitError {
    /// The flow script did not parse; the payload names the offending token.
    Script {
        /// What the parser rejected.
        error: ParseFlowError,
        /// The circuit of the failed submission, handed back unchanged.
        circuit: Box<Aig>,
    },
    /// The service has been shut down.
    ServiceClosed {
        /// The circuit of the failed submission, handed back unchanged.
        circuit: Box<Aig>,
    },
    /// The admission queue stayed full past what the configured
    /// [`AdmissionPolicy`] tolerates: the job was shed.  Never returned
    /// under [`AdmissionPolicy::Block`].
    Overloaded {
        /// The circuit of the shed submission, handed back unchanged.
        circuit: Box<Aig>,
    },
    /// [`ServiceHandle::submit_with`] named a model id the registry does not
    /// currently publish (never handed out, or retired).
    UnknownModel {
        /// The id that did not resolve.
        model: ModelId,
        /// The circuit of the failed submission, handed back unchanged.
        circuit: Box<Aig>,
    },
}

impl SubmitError {
    /// The circuit of the failed submission, by reference.
    pub fn circuit(&self) -> &Aig {
        match self {
            SubmitError::Script { circuit, .. }
            | SubmitError::ServiceClosed { circuit }
            | SubmitError::Overloaded { circuit }
            | SubmitError::UnknownModel { circuit, .. } => circuit,
        }
    }

    /// Recovers the circuit of the failed submission — the retry path:
    /// `handle.submit(err.into_circuit(), script)`.
    pub fn into_circuit(self) -> Aig {
        match self {
            SubmitError::Script { circuit, .. }
            | SubmitError::ServiceClosed { circuit }
            | SubmitError::Overloaded { circuit }
            | SubmitError::UnknownModel { circuit, .. } => *circuit,
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Script { error, .. } => write!(f, "invalid flow script: {error}"),
            SubmitError::ServiceClosed { .. } => write!(f, "the service has been shut down"),
            SubmitError::Overloaded { .. } => {
                write!(f, "the admission queue is full and the job was shed")
            }
            SubmitError::UnknownModel { model, .. } => {
                write!(f, "{model} is not published by the service's registry")
            }
        }
    }
}

impl Error for SubmitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SubmitError::Script { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Service-wide counters, snapshotted by [`ElfService::stats`] and returned
/// by [`ElfService::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs fully served (successful responses delivered).
    pub jobs_served: u64,
    /// Jobs delivered as failed because the worker panicked or died
    /// executing them (see [`JobResponse::failed`]); always 0 in a healthy
    /// service.
    pub jobs_failed: u64,
    /// Submissions shed by [`AdmissionPolicy::Reject`] against a full queue.
    pub jobs_rejected: u64,
    /// Forward passes run by served jobs: one per pruned stage that went on
    /// to prune or keep at least one cut.
    pub inference_batches: u64,
    /// Cuts decided across all forward passes: the `pruned + kept` of every
    /// pruned stage (a cut whose node an earlier commit of the same stage
    /// freed is classified but not counted).
    pub inference_rows: u64,
    /// Snapshot of the service-lifetime NPN-canonical cut-factoring cache:
    /// entries resident, lifetime hits and misses across all jobs.
    pub cut_cache: CutCacheStats,
}

/// Shared service-wide telemetry (admission + workers), backed by
/// a per-service [`Registry`].
///
/// Every counter lives in the registry — [`ServiceStats`] is a *view* of the
/// registry state, not a second set of books.  The handles here are
/// pre-resolved so the hot paths (worker loop, admission) never
/// take the registry's name lock.
#[derive(Debug)]
struct Telemetry {
    /// The owning registry, for labeled lookups, scrapes and snapshots.
    metrics: Registry,
    /// [`names::JOBS_SERVED`].
    jobs: Counter,
    /// [`names::JOBS_FAILED`].
    jobs_failed: Counter,
    /// [`names::JOBS_SHED`] with `policy="reject"`.
    jobs_rejected: Counter,
    /// [`names::INFER_BATCHES`].
    batches: Counter,
    /// [`names::QUEUE_WAIT_US`].
    queue_wait: Histogram,
    /// [`names::JOB_SERVICE_US`].
    job_service: Histogram,
    /// [`names::QUEUE_DEPTH`].
    queue_depth: Gauge,
}

impl Telemetry {
    fn new(metrics: Registry) -> Self {
        Telemetry {
            jobs: metrics.counter(names::JOBS_SERVED),
            jobs_failed: metrics.counter(names::JOBS_FAILED),
            jobs_rejected: metrics.counter_with(names::JOBS_SHED, &[("policy", "reject")]),
            batches: metrics.counter(names::INFER_BATCHES),
            queue_wait: metrics.histogram(names::QUEUE_WAIT_US),
            job_service: metrics.histogram(names::JOB_SERVICE_US),
            queue_depth: metrics.gauge(names::QUEUE_DEPTH),
            metrics,
        }
    }

    /// The forward passes of one finished job under `model`: the pass
    /// counter and the per-model row counter ([`names::INFER_ROWS`], label
    /// `model`).
    fn record_forward_passes(&self, model: ModelId, passes: usize, rows: usize) {
        self.batches.add(passes as u64);
        self.metrics
            .counter_with(names::INFER_ROWS, &[("model", &model.to_string())])
            .add(rows as u64);
    }

    /// The counters as [`ServiceStats`], beside the cut cache's own
    /// snapshot (the cache keeps its own atomics).
    fn snapshot(&self, cut_cache: CutCacheStats) -> ServiceStats {
        // The per-model row counters are summed from a registry snapshot —
        // the stats struct stays a pure view.
        let snap = self.metrics.snapshot();
        let inference_rows = snap
            .counters
            .iter()
            .filter(|(name, _)| is_series_of(name, names::INFER_ROWS))
            .map(|(_, v)| v)
            .sum();
        ServiceStats {
            jobs_served: self.jobs.get(),
            jobs_failed: self.jobs_failed.get(),
            jobs_rejected: self.jobs_rejected.get(),
            inference_batches: self.batches.get(),
            inference_rows,
            cut_cache,
        }
    }
}

/// Whether a registry series name belongs to `family` (either the bare name
/// or a labeled `family{...}` variant).
fn is_series_of(name: &str, family: &str) -> bool {
    name == family
        || (name.len() > family.len()
            && name.starts_with(family)
            && name.as_bytes()[family.len()] == b'{')
}

/// The reply channel of one job, armed to deliver a failure placeholder if
/// the job is dropped before a real response was sent.
///
/// This is what makes "a worker died mid-job" survivable: every handle holds
/// its own reply sender, so the channel never disconnects and a silently
/// dropped job would otherwise hang its client in `recv` forever.  The guard
/// turns *any* path that destroys a job without answering — a panic
/// unwinding the worker thread outside the flow's own catch, a worker killed
/// by a bug — into a delivered [`JobResponse::failed`] response.
struct ReplyGuard {
    job_id: u64,
    model: ModelId,
    telemetry: Arc<Telemetry>,
    tx: Option<mpsc::Sender<JobResponse>>,
}

impl ReplyGuard {
    fn new(
        job_id: u64,
        model: ModelId,
        telemetry: Arc<Telemetry>,
        tx: mpsc::Sender<JobResponse>,
    ) -> Self {
        ReplyGuard {
            job_id,
            model,
            telemetry,
            tx: Some(tx),
        }
    }

    /// Delivers the real response, disarming the failure placeholder.
    fn send(mut self, response: JobResponse) {
        if let Some(tx) = self.tx.take() {
            // The handle may have been dropped without collecting its
            // responses; the job's work is simply discarded then.
            let _ = tx.send(response);
        }
    }

    /// Disarms the guard without sending — for jobs handed back to the
    /// caller (shed or closed), which never owe a response.
    fn disarm(mut self) {
        self.tx.take();
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            self.telemetry.jobs_failed.inc();
            let _ = tx.send(JobResponse {
                job_id: JobId(self.job_id),
                aig: Aig::new(),
                stats: ServeStats::placeholder(self.model),
                failed: true,
            });
        }
    }
}

/// One admitted job, queued for a shard worker.
///
/// The model travels as `Arc` handles pinned inside `flow`'s stages:
/// building and queueing a job allocates **zero model-weight bytes**, and the
/// pinned version outlives any registry swap until the job completes.
struct Job {
    id: u64,
    /// The classifier version pinned at submission.
    model: ModelId,
    aig: Aig,
    /// The pruned flow, built at submission from the pinned classifier, on
    /// this job's view of the service-lifetime cut cache (same map as every
    /// other job, private hit/miss counters for [`ServeStats`]).
    flow: Flow,
    submitted_at: Instant,
    reply: ReplyGuard,
}

impl Job {
    /// Hands the circuit back to the submitting caller, disarming the reply
    /// guard — a job that was never admitted owes no response.
    fn into_circuit(self) -> Aig {
        let Job { aig, reply, .. } = self;
        reply.disarm();
        aig
    }
}

/// State shared between the service, its workers and every handle.
struct Shared {
    registry: Arc<ModelRegistry>,
    /// The classifier the service was started with (registry id 0).
    founding: Arc<ElfClassifier>,
    config: ServeConfig,
    /// The service-lifetime NPN-canonical cut-factoring cache, shared by
    /// every job (each through its own [`CutCache::job_view`]).  Like the
    /// model registry, it outlives individual jobs; unlike the registry it
    /// is pure acceleration — results are identical with it disabled.
    cut_cache: CutCache,
    queue: JobQueue<Job>,
    telemetry: Arc<Telemetry>,
    next_job_id: AtomicU64,
    /// Test hook: the next worker to pick up a job panics *outside* the
    /// flow's catch-unwind — simulating a worker dying mid-job.
    #[cfg(test)]
    kill_next_worker: std::sync::atomic::AtomicBool,
}

/// A long-lived serving instance of the ELF flow.
///
/// Constructed once from a trained classifier, the service owns a fixed
/// shard of worker threads and accepts circuits over the channel API of
/// [`ServiceHandle`].  A worker runs its job's whole flow — forward passes included — inline on
/// the classifier version the job pinned.  Admission is **bounded**
/// ([`ServeConfig::queue_bound`]) with a configurable full-queue policy
/// ([`ServeConfig::admission`]), and the classifier lives in a versioned
/// [`ModelRegistry`] ([`ElfService::registry`]) that can hot-swap models
/// while the service runs.
///
/// Results are **per-job deterministic**: every job's output AIG is
/// node-for-node identical to running the same script offline through
/// [`Flow::pruned_from_script`] with the job's pinned classifier version and
/// the service options, regardless of shard count, queue bound, admission
/// policy, client threads, submission interleaving or concurrent registry
/// swaps — a served job *is* that flow, run on a worker thread.
///
/// Shutdown is graceful: [`ElfService::shutdown`] (or dropping the service)
/// closes admission, drains the queue, and joins every thread.
///
/// # Examples
///
/// ```
/// use elf_aig::Aig;
/// use elf_core::ElfClassifier;
/// use elf_nn::{Mlp, Normalizer};
/// use elf_par::Parallelism;
/// use elf_serve::{ElfService, ServeConfig};
///
/// let classifier = ElfClassifier::from_parts(
///     Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
///     Mlp::paper_architecture(5),
///     0.5,
/// );
/// let config = ServeConfig { shards: Parallelism::threads(2), ..Default::default() };
/// let service = ElfService::start(classifier, config);
/// let mut handle = service.handle();
///
/// let mut aig = Aig::new();
/// let inputs = aig.add_inputs(3);
/// let t0 = aig.and(inputs[0], inputs[1]);
/// let t1 = aig.and(inputs[0], inputs[2]);
/// let f = aig.or(t0, t1);
/// aig.add_output(f);
///
/// let id = handle.submit(aig, "rf; rw").unwrap();
/// let response = handle.recv().expect("one job is outstanding");
/// assert_eq!(response.job_id, id);
/// assert!(response.stats.flow.ands_after <= response.stats.flow.ands_before);
///
/// let stats = service.shutdown();
/// assert_eq!(stats.jobs_served, 1);
/// ```
#[derive(Debug)]
pub struct ElfService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Shared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .field("queue_depth", &self.queue.depth())
            .field("next_job_id", &self.next_job_id.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ElfService {
    /// Starts the service: spawns the shard workers.
    /// `classifier` becomes the founding model (registry id 0).
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a service thread
    /// (resource exhaustion); [`ElfService::try_start`] surfaces that as an
    /// error instead.
    pub fn start(classifier: ElfClassifier, config: ServeConfig) -> Self {
        match Self::try_start(classifier, config) {
            Ok(service) => service,
            Err(error) => panic!("cannot spawn the service threads: {error}"),
        }
    }

    /// Fallible variant of [`ElfService::start`]: returns the OS error when
    /// a service thread cannot be spawned, after joining whatever threads a
    /// partial start already created — no thread outlives the error.
    ///
    /// # Errors
    ///
    /// The [`std::io::Error`] of the failed thread spawn.
    pub fn try_start(classifier: ElfClassifier, config: ServeConfig) -> std::io::Result<Self> {
        let registry = Arc::new(ModelRegistry::with_initial(classifier));
        let (_, founding) = registry.resolve_default();
        let shards = config.shards.num_threads();
        let shared = Arc::new(Shared {
            registry,
            founding,
            config,
            cut_cache: CutCache::new(job_options().cut_cache),
            queue: JobQueue::new(config.queue_bound),
            // Per-service registry: an isolated metric namespace so two
            // services in one process (or one per test) never mix counters.
            telemetry: Arc::new(Telemetry::new(Registry::new())),
            next_job_id: AtomicU64::new(0),
            #[cfg(test)]
            kill_next_worker: std::sync::atomic::AtomicBool::new(false),
        });

        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let spawned = {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("elf-serve-worker-{shard}"))
                    .spawn(move || worker_loop(&shared))
            };
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(error) => {
                    // Partial start: closing the queue ends the spawned
                    // workers; join them all before surfacing the error.
                    shared.queue.close();
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(error);
                }
            }
        }

        Ok(ElfService { shared, workers })
    }

    /// Creates a client handle with its own private response channel.
    ///
    /// Handles are independent: each receives exactly the responses of the
    /// jobs it submitted, so one handle per client thread is the natural
    /// pattern ([`ServiceHandle`] also implements `Clone` with the same
    /// semantics).
    pub fn handle(&self) -> ServiceHandle {
        let (reply_tx, reply_rx) = mpsc::channel();
        ServiceHandle {
            shared: Arc::clone(&self.shared),
            reply_tx,
            reply_rx,
            outstanding: 0,
        }
    }

    /// The founding classifier (registry id 0) — what
    /// [`ServiceHandle::submit`] prunes with until the registry's default is
    /// changed.
    pub fn classifier(&self) -> &ElfClassifier {
        self.shared.founding.as_ref()
    }

    /// The versioned model registry: publish retrained classifiers, switch
    /// the default, retire old versions — all while the service runs.
    /// In-flight jobs are never affected (they pin their version at
    /// submission).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// The flow options applied to served jobs — a sequential engine and
    /// the default cut cache — and so what an offline
    /// [`Flow::pruned_from_script`] comparison must use, chained with
    /// `.with_verify(service.config().verify)` to check what the served job
    /// checked.
    pub fn options(&self) -> ElfOptions {
        job_options()
    }

    /// Jobs currently waiting for a shard worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Pauses the shard workers: in-flight jobs finish, then workers idle
    /// with the queue holding everything admitted since.  Admission itself
    /// keeps running under its policy — which makes `pause` both a
    /// maintenance valve and the way to fill the queue deterministically in
    /// overload tests.
    pub fn pause(&self) {
        self.shared.queue.set_paused(true);
    }

    /// Resumes paused shard workers; the queued backlog drains in order.
    pub fn resume(&self) {
        self.shared.queue.set_paused(false);
    }

    /// A live snapshot of the service-wide counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared
            .telemetry
            .snapshot(self.shared.cut_cache.stats())
    }

    /// A point-in-time snapshot of every metric the service has recorded in
    /// its own registry (isolated from the process-global
    /// [`Registry::global`]): the serving families, and the `elf_stage_*`,
    /// `elf_verify_*` and `elf_cut_cache_*` metrics of served flows.  The
    /// structured twin of [`ElfService::metrics_text`], and the input to
    /// [`elf_obs::metrics::Snapshot::counter_space_diff`].
    pub fn metrics_snapshot(&self) -> elf_obs::metrics::Snapshot {
        self.refresh_gauges();
        self.shared.telemetry.metrics.snapshot()
    }

    /// Renders every service metric in Prometheus text exposition format —
    /// the scrape endpoint payload.  Gauges that are cheaper to poll than to
    /// track (cut-cache residency, queue depth) are refreshed here.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.shared.telemetry.metrics.render_text()
    }

    /// Folds scrape-time gauges into the registry: cut-cache residency and
    /// the current queue depth.
    fn refresh_gauges(&self) {
        self.shared
            .cut_cache
            .fold_into(&self.shared.telemetry.metrics);
        self.shared
            .telemetry
            .queue_depth
            .set(self.shared.queue.depth() as i64);
    }

    /// Gracefully shuts the service down: admission closes (further
    /// [`ServiceHandle::submit`] calls return
    /// [`SubmitError::ServiceClosed`]), queued jobs are drained and
    /// delivered — even if the service was paused — and every thread is
    /// joined.  Returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Test hook: make the next worker that picks up a job die (panic
    /// outside the flow's catch) — the reply-guard regression scenario.
    #[cfg(test)]
    fn kill_next_worker(&self) {
        self.shared.kill_next_worker.store(true, Ordering::SeqCst);
    }
}

impl Drop for ElfService {
    /// Dropping the service performs the same graceful drain as
    /// [`ElfService::shutdown`] (minus the returned counters).
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One shard worker: pull the oldest job, run its flow, deliver the
/// response to the submitting handle.
fn worker_loop(shared: &Shared) {
    let telemetry = &*shared.telemetry;
    while let Some((job, queue_depth)) = shared.queue.pop() {
        let Job {
            id,
            model,
            mut aig,
            flow,
            submitted_at,
            reply,
        } = job;
        // Simulated worker death: the panic unwinds through `worker_loop`
        // with `reply` alive, so the guard's Drop must deliver the failure.
        #[cfg(test)]
        if shared.kill_next_worker.swap(false, Ordering::SeqCst) {
            panic!("test hook: worker killed mid-job");
        }
        let queued_time = submitted_at.elapsed();
        let started = Instant::now();

        telemetry.queue_depth.set(queue_depth as i64);
        telemetry.queue_wait.record_duration(queued_time);
        // Everything the worker records until the response is delivered —
        // flow stages, forward passes, CEC checks — is tagged with the job
        // id, so the Chrome export groups one served job into one contiguous
        // run.
        let _job_scope = elf_obs::trace::JobScope::enter(id);
        if elf_obs::trace::enabled() {
            // The admission wait started on the submitting thread; record it
            // here as a just-ended leaf so it still lands inside the job
            // group.
            elf_obs::trace::record_past(
                "queue_wait",
                queued_time.as_micros().min(u64::MAX as u128) as u64,
                vec![("queue_depth", queue_depth as i64)],
            );
        }
        let job_span = elf_obs::span!("job", nodes = aig.num_reachable_ands());

        // A panic inside the flow (an operator invariant violation — an
        // internal bug) must not strand the client: catch it, deliver the
        // job as failed, and keep the worker alive for the rest of the
        // queue.  (The ReplyGuard additionally covers panics *outside* this
        // catch, at the cost of the worker thread.)  `AssertUnwindSafe` is
        // justified because the possibly half-mutated `aig` is only handed
        // back with `failed: true`, documented as unusable.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| flow.run(&mut aig)));
        let failed = outcome.is_err();
        let flow_stats = outcome.unwrap_or_default();

        let service_time = started.elapsed();
        drop(job_span);
        telemetry.job_service.record_duration(service_time);
        // A forward pass is a pruned stage that decided at least one cut; its
        // rows are the cuts it pruned or kept.
        let (passes, rows) = flow_stats
            .stages
            .iter()
            .filter_map(|stage| stage.elf.as_ref())
            .map(|elf| elf.pruned + elf.kept)
            .filter(|&rows| rows > 0)
            .fold((0, 0), |(passes, total), rows| (passes + 1, total + rows));
        if passes > 0 {
            telemetry.record_forward_passes(model, passes, rows);
        }
        if failed {
            telemetry.jobs_failed.inc();
        } else {
            telemetry.jobs.inc();
        }
        let cache = flow.cut_cache();
        let stats = ServeStats {
            model,
            queue_depth,
            cache_hits: cache.map_or(0, CutCache::local_hits),
            cache_misses: cache.map_or(0, CutCache::local_misses),
            queued_time,
            service_time,
            flow: flow_stats,
        };
        reply.send(JobResponse {
            job_id: JobId(id),
            aig,
            stats,
            failed,
        });
    }
}

/// A client's connection to an [`ElfService`].
///
/// Each handle owns a private response channel: it receives exactly the
/// responses of the jobs *it* submitted, in completion order.  Handles are
/// `Send`, and cloning one (or calling [`ElfService::handle`] again) creates
/// an independent client — the way to fan submissions out over many client
/// threads.
#[derive(Debug)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
    reply_tx: mpsc::Sender<JobResponse>,
    reply_rx: mpsc::Receiver<JobResponse>,
    /// Jobs submitted through this handle whose responses have not been
    /// returned to the caller yet.
    outstanding: usize,
}

impl Clone for ServiceHandle {
    /// Clones the *connection*, not the inbox: the clone shares the service
    /// but gets a fresh private response channel with nothing outstanding.
    fn clone(&self) -> Self {
        let (reply_tx, reply_rx) = mpsc::channel();
        ServiceHandle {
            shared: Arc::clone(&self.shared),
            reply_tx,
            reply_rx,
            outstanding: 0,
        }
    }
}

impl ServiceHandle {
    /// Submits a circuit with an ABC-style flow script (e.g. `"rf; rw; rs"`),
    /// pruned by the registry's **current default** classifier, returning
    /// the job's id immediately.
    ///
    /// Every stage runs classifier-pruned, exactly like
    /// [`Flow::pruned_from_script`] with that classifier and the service
    /// options.  The job pins its classifier version here: registry swaps
    /// after `submit` returns never affect it.  The script is validated
    /// here, so a typo fails fast at the submitting client instead of
    /// inside a worker.  Building and queueing the job allocates **no
    /// model-weight bytes** — the classifier travels by `Arc`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Script`] when the script has an unknown token;
    /// [`SubmitError::Overloaded`] when the admission queue sheds the job
    /// (full queue under [`AdmissionPolicy::Reject`]);
    /// [`SubmitError::ServiceClosed`] after shutdown.  Every error hands
    /// the circuit back ([`SubmitError::into_circuit`]).
    pub fn submit(&mut self, aig: Aig, flow_script: &str) -> Result<JobId, SubmitError> {
        let (model, classifier) = self.shared.registry.resolve_default();
        self.submit_inner(aig, flow_script, model, classifier)
    }

    /// Like [`ServiceHandle::submit`], but prunes with a specific published
    /// classifier version instead of the registry default — per-request
    /// model selection for canarying or A/B comparison.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`] when `model` is not currently
    /// published, plus everything [`ServiceHandle::submit`] returns.
    pub fn submit_with(
        &mut self,
        aig: Aig,
        flow_script: &str,
        model: ModelId,
    ) -> Result<JobId, SubmitError> {
        match self.shared.registry.get(model) {
            Some(classifier) => self.submit_inner(aig, flow_script, model, classifier),
            None => Err(SubmitError::UnknownModel {
                model,
                circuit: Box::new(aig),
            }),
        }
    }

    fn submit_inner(
        &mut self,
        aig: Aig,
        flow_script: &str,
        model: ModelId,
        classifier: Arc<ElfClassifier>,
    ) -> Result<JobId, SubmitError> {
        let config = &self.shared.config;
        let flow = match Flow::pruned_from_script(flow_script, &classifier, job_options()) {
            Ok(flow) => flow,
            Err(error) => {
                return Err(SubmitError::Script {
                    error,
                    circuit: Box::new(aig),
                })
            }
        };
        // Swap the flow's own per-pipeline cache for a view of the
        // service-lifetime one: factoring work learned on earlier jobs
        // carries over, and the view's counters give this job its own hit
        // rate.  Results are bit-identical either way.  Served jobs record
        // their flow metrics (stage counters, verify totals, cache hit
        // deltas) into the *service* registry, so one scrape covers the
        // whole serving stack.
        let flow = flow
            .with_verify(config.verify)
            .with_cut_cache(self.shared.cut_cache.job_view())
            .with_metrics(self.shared.telemetry.metrics.clone());
        let id = self.shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            id,
            model,
            aig,
            flow,
            submitted_at: Instant::now(),
            reply: ReplyGuard::new(
                id,
                model,
                Arc::clone(&self.shared.telemetry),
                self.reply_tx.clone(),
            ),
        };
        match self.shared.queue.push(job, config.admission) {
            Ok(_) => {
                self.outstanding += 1;
                self.shared
                    .telemetry
                    .queue_depth
                    .set(self.shared.queue.depth() as i64);
                Ok(JobId(id))
            }
            Err(PushError::Closed(job)) => Err(SubmitError::ServiceClosed {
                circuit: Box::new(job.into_circuit()),
            }),
            Err(PushError::Overloaded(job)) => {
                // Only Reject sheds: the queue never sheds under Block.
                self.shared.telemetry.jobs_rejected.inc();
                Err(SubmitError::Overloaded {
                    circuit: Box::new(job.into_circuit()),
                })
            }
        }
    }

    /// Jobs submitted through this handle whose responses have not been
    /// returned yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Blocks until the next response of a job submitted through this handle
    /// arrives, in completion order.  Returns `None` when nothing is
    /// outstanding — a loop of `recv` after a burst of submissions
    /// terminates by itself.
    pub fn recv(&mut self) -> Option<JobResponse> {
        if self.outstanding == 0 {
            return None;
        }
        let response = match self.reply_rx.recv() {
            Ok(response) => response,
            // Defensively unreachable: the handle holds its own reply
            // sender, so the channel cannot disconnect while it lives, and
            // the ReplyGuard answers even for dying workers.  Were the
            // invariant ever broken, surface a failed response instead of
            // hanging or panicking the client.
            Err(mpsc::RecvError) => dead_channel_response(),
        };
        self.outstanding -= 1;
        Some(response)
    }

    /// Returns the next response if one is already available, without
    /// blocking.  `None` means "nothing finished yet" (or nothing
    /// outstanding — check [`ServiceHandle::outstanding`]).
    pub fn try_recv(&mut self) -> Option<JobResponse> {
        match self.reply_rx.try_recv() {
            Ok(response) => {
                self.outstanding -= 1;
                Some(response)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            // See `recv` — defensively unreachable.
            Err(mpsc::TryRecvError::Disconnected) => {
                if self.outstanding == 0 {
                    return None;
                }
                self.outstanding -= 1;
                Some(dead_channel_response())
            }
        }
    }
}

/// The failure placeholder for the defensively-unreachable "reply channel
/// disconnected" paths; carries the sentinel job id `u64::MAX` when the
/// orphaned job cannot be named.
fn dead_channel_response() -> JobResponse {
    JobResponse {
        job_id: JobId(u64::MAX),
        aig: Aig::new(),
        stats: ServeStats::placeholder(ModelId::dead_channel()),
        failed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier() -> ElfClassifier {
        ElfClassifier::from_parts(
            elf_nn::Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
            elf_nn::Mlp::paper_architecture(5),
            0.5,
        )
    }

    fn circuit(salt: usize) -> Aig {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(4);
        let t0 = aig.and(inputs[0], inputs[1]);
        let t1 = aig.and(inputs[2], inputs[3]);
        let t2 = aig.and(inputs[salt % 4], inputs[(salt + 1) % 4]);
        let pair = aig.or(t0, t1);
        let f = aig.or(pair, t2);
        aig.add_output(f);
        aig
    }

    /// Submits one job and waits for its response.
    fn serve_one(handle: &mut ServiceHandle, aig: Aig, script: &str) -> JobResponse {
        handle.submit(aig, script).unwrap();
        handle.recv().expect("one job is outstanding")
    }

    fn two_shard_config() -> ServeConfig {
        ServeConfig {
            shards: Parallelism::threads(2),
            ..Default::default()
        }
    }

    #[test]
    fn a_dying_worker_delivers_a_failed_response_and_the_service_survives() {
        let service = ElfService::start(classifier(), two_shard_config());
        let mut handle = service.handle();

        service.kill_next_worker();
        let id = handle.submit(circuit(0), "rf; rw").unwrap();
        let response = handle.recv().expect("the reply guard must answer");
        assert_eq!(response.job_id, id);
        assert!(
            response.failed,
            "a killed worker's job must come back failed"
        );

        // The surviving shard keeps serving: it pops from the one queue the
        // dead worker left behind.
        for salt in 1..4 {
            let response = serve_one(&mut handle, circuit(salt), "rf; rw");
            assert!(!response.failed);
        }

        let stats = service.shutdown();
        assert_eq!(stats.jobs_failed, 1);
        assert_eq!(stats.jobs_served, 3);
    }

    #[test]
    fn shed_and_closed_submissions_hand_the_circuit_back_intact() {
        let service = ElfService::start(
            classifier(),
            ServeConfig {
                shards: Parallelism::threads(1),
                queue_bound: 1,
                admission: AdmissionPolicy::Reject,
                ..Default::default()
            },
        );
        let mut handle = service.handle();
        service.pause();

        // Fill the one-slot queue, then shed.
        let original = circuit(2);
        let nodes = original.num_reachable_ands();
        handle.submit(circuit(1), "rf").unwrap();
        let err = handle.submit(original, "rf").unwrap_err();
        assert!(matches!(err, SubmitError::Overloaded { .. }));
        let recovered = err.into_circuit();
        assert_eq!(recovered.num_reachable_ands(), nodes);
        assert_eq!(service.stats().jobs_rejected, 1);

        // A bad script also hands the circuit back, before touching the
        // queue.
        let err = handle.submit(recovered, "bogus_stage").unwrap_err();
        assert!(matches!(err, SubmitError::Script { .. }));
        let recovered = err.into_circuit();

        // And so does submitting after shutdown.
        service.resume();
        while handle.recv().is_some() {}
        drop(service);
        let err = handle.submit(recovered, "rf").unwrap_err();
        assert!(matches!(err, SubmitError::ServiceClosed { .. }));
        assert_eq!(err.circuit().num_reachable_ands(), nodes);
    }

    #[test]
    fn submit_with_rejects_unknown_and_retired_models() {
        let service = ElfService::start(classifier(), two_shard_config());
        let mut handle = service.handle();
        let registry = service.registry();
        let founding = registry.default_model();

        let bogus = crate::registry::ModelId::for_tests(77);
        let err = handle.submit_with(circuit(0), "rf", bogus).unwrap_err();
        assert!(matches!(
            err,
            SubmitError::UnknownModel { model, .. } if model == bogus
        ));

        // Retire the founding model behind a replacement: selecting it
        // explicitly now fails, while plain submit follows the new default.
        let v1 = registry.publish(classifier());
        registry.set_default(v1).unwrap();
        assert!(registry.retire(founding));
        let err = handle
            .submit_with(err.into_circuit(), "rf", founding)
            .unwrap_err();
        assert!(matches!(err, SubmitError::UnknownModel { .. }));

        let response = serve_one(&mut handle, err.into_circuit(), "rf");
        assert_eq!(response.stats.model, v1);
        assert!(!response.failed);
    }

    #[test]
    fn a_verified_job_returns_proved_and_matches_the_offline_flow() {
        let service = ElfService::start(
            classifier(),
            ServeConfig {
                verify: VerifyMode::Final,
                ..two_shard_config()
            },
        );
        let mut handle = service.handle();
        let original = circuit(3);

        let response = serve_one(&mut handle, original.clone(), "rf; rw; rs");
        assert!(!response.failed);
        let outcome = response
            .stats
            .flow
            .verify
            .as_ref()
            .expect("verify was enabled");
        assert_eq!(outcome.mode, VerifyMode::Final);
        assert_eq!(
            outcome.checks.len(),
            1,
            "Final mode runs one whole-flow check"
        );
        assert!(outcome.proved(), "the served flow must be SAT-proved");

        // Verification is an observer: the served result stays node-for-node
        // identical to the offline pruned flow under the service options,
        // and the twin, verified the same way, reaches the same verdict.
        let mut offline = original;
        let offline_stats =
            Flow::pruned_from_script("rf; rw; rs", service.classifier(), service.options())
                .unwrap()
                .with_verify(service.config().verify)
                .run(&mut offline);
        assert_eq!(response.aig.num_slots(), offline.num_slots());
        assert_eq!(
            response.aig.num_reachable_ands(),
            offline.num_reachable_ands()
        );
        let twin = offline_stats.verify.expect("offline twin verifies too");
        assert_eq!(twin.mode, outcome.mode);
        assert_eq!(twin.checks.len(), outcome.checks.len());
        assert_eq!(twin.proved(), outcome.proved());
        assert_eq!(twin.counterexample(), outcome.counterexample());
        service.shutdown();
    }

    #[test]
    fn per_stage_verification_names_every_stage() {
        let service = ElfService::start(
            classifier(),
            ServeConfig {
                verify: VerifyMode::PerStage,
                ..two_shard_config()
            },
        );
        let mut handle = service.handle();
        let response = serve_one(&mut handle, circuit(1), "rf; rw");
        let outcome = response.stats.flow.verify.expect("verify was enabled");
        assert_eq!(outcome.checks.len(), 2, "one check per stage");
        assert!(outcome.checks.iter().all(|check| check.stage.is_some()));
        assert!(outcome.proved());
        service.shutdown();
    }

    #[test]
    fn repeated_jobs_hit_the_service_lifetime_cut_cache() {
        let service = ElfService::start(classifier(), two_shard_config());
        let mut handle = service.handle();

        let first = serve_one(&mut handle, circuit(1), "rf; rw");
        assert!(!first.failed);
        assert!(
            first.stats.cache_hits + first.stats.cache_misses > 0,
            "the job factored cuts through the service cache"
        );

        // The same circuit and script again: every factoring was published
        // by the first job, so the second must hit — the cache outlives jobs.
        let second = serve_one(&mut handle, circuit(1), "rf; rw");
        assert!(!second.failed);
        assert!(
            second.stats.cache_hits > 0,
            "a repeated job must reuse cached factorings (hits={} misses={})",
            second.stats.cache_hits,
            second.stats.cache_misses
        );
        // Acceleration only, never a different answer.
        assert_eq!(
            second.aig.num_reachable_ands(),
            first.stats.flow.ands_after,
            "cache reuse must not change the served result"
        );

        let stats = service.shutdown();
        assert!(stats.cut_cache.enabled);
        assert!(stats.cut_cache.entries > 0);
        assert!(stats.cut_cache.hits >= second.stats.cache_hits);
        assert!(stats.cut_cache.hit_rate() > 0.0);
    }

    #[test]
    fn submitting_allocates_no_model_weight_bytes() {
        let classifier = classifier();
        let weights = Arc::clone(classifier.model_handle());
        let service = ElfService::start(classifier, two_shard_config());
        let mut handle = service.handle();
        service.pause();

        // Registry snapshot + founding handle hold a fixed number of pins.
        let resting = Arc::strong_count(&weights);
        let mut ids = Vec::new();
        for salt in 0..8 {
            ids.push(handle.submit(circuit(salt), "rf; rw; rs").unwrap());
        }
        // Each queued job pins the weights once per flow stage — never a
        // weight copy.  8 jobs × 3 stages.
        assert_eq!(Arc::strong_count(&weights), resting + 8 * 3);

        service.resume();
        while handle.recv().is_some() {}
        // Shutdown joins the workers, so every job's pins are provably
        // released (a worker may still be dropping its last job right after
        // sending the response).
        let stats = service.shutdown();
        assert_eq!(stats.jobs_served, 8);
        assert_eq!(Arc::strong_count(&weights), resting);
    }
}
