//! The staged discovery engine — a trait-based decomposition of the
//! pipeline into its three stages plus a shared execution context.
//!
//! The monolithic `discover()` of earlier revisions interleaved timing,
//! counting, and the actual algorithms; baselines (`ips-baselines`)
//! re-implemented the same generate → prune → select skeleton with
//! bespoke loops and no telemetry. This module factors the skeleton out:
//!
//! - [`CandidateSource`] — stage 1, Algorithm 1 (or a baseline's
//!   enumeration strategy): produce the candidate pool.
//! - [`Pruner`] — stages 2–3, Algorithms 2 & 3 (DABF build + pruning),
//!   or [`NoopPruner`] for methods without a pruning phase.
//! - [`Selector`] — stage 4, Algorithm 4 (utility scoring + top-k), or a
//!   simpler ranking rule.
//!
//! An [`Engine`] composes one implementation of each and drives them with
//! a shared [`ExecContext`] that carries a [`WorkerPool`] (deterministic
//! class-parallel execution), reusable [`Scratch`] buffers, and the
//! telemetry sink: every stage emits a [`StageReport`] (wall-clock plus
//! [`StageCounters`]) into a [`RunReport`], and an optional
//! [`StageObserver`] sees each report the moment the stage finishes.
//!
//! Parallelism never changes results: stages decompose into
//! [`crate::schedule::WorkItem`] ranges *within* each class (generation
//! samples, pruning probe ranges, unique-distance batches), each item a
//! pure function of immutable inputs, and item outputs merge in fixed
//! class-major order. The partition depends only on the workload and the
//! [`chunk_size`](crate::IpsConfig::chunk_size) knob — never the thread
//! count — so results *and* counters are bit-identical to the sequential
//! path at any thread count and chunk size (enforced by the
//! `engine_equivalence` test suite).
//!
//! **Robustness contract** (DESIGN.md §10): the engine never aborts on
//! malformed input or a misbehaving stage. Configurations and training
//! sets are validated up front ([`IpsConfig::validate`],
//! `Dataset::validate`), every stage closure runs under `catch_unwind`
//! (a panic becomes [`IpsError::StageFailed`] and sibling worker tasks
//! still complete), and a [`DiscoveryBudget`] turns resource exhaustion
//! into a *degraded* best-so-far result instead of an error. A seeded
//! [`FaultPlan`] can inject each of these failures deliberately; the
//! default plan is inert.
//!
//! [`DiscoveryBudget`]: crate::config::DiscoveryBudget
//! [`IpsError::StageFailed`]: crate::IpsError::StageFailed

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ips_classify::Shapelet;
use ips_distance::{cross_keys, CacheStats, DistCache, KernelPolicy, Metric, MinDistKey};
use ips_filter::Dabf;
use ips_obs::{MetricsRegistry, MetricsSnapshot, RunRecord};
use ips_tsdata::Dataset;

use crate::candidates::CandidatePool;
use crate::config::IpsConfig;
use crate::error::IpsError;
use crate::fault::FaultPlan;
use crate::pipeline::{DiscoveryResult, PipelineError, StageTimings};
use crate::pruning::{
    apply_survivors, build_dabf, dabf_survivors_range, naive_filters, naive_survivors_range,
};
use crate::schedule::TaskPartition;
use crate::topk::select_class_from_scores;
use crate::utility::{
    exact_request_plan, score_dt_cr_counted, score_exact_replay, ClassRequests, ScoreMode,
};

// ---------------------------------------------------------------------------
// Telemetry: stages, counters, reports, observers
// ---------------------------------------------------------------------------

/// The four pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Algorithm 1 — candidate generation.
    CandidateGen,
    /// Algorithm 2 — DABF construction (absent or zero-length for
    /// pruner implementations that build no filter).
    DabfBuild,
    /// Algorithm 3 — candidate pruning.
    Pruning,
    /// Algorithm 4 — utility scoring and top-k selection.
    TopK,
}

impl Stage {
    /// Human-readable stage name (used in bench tables).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::CandidateGen => "candidate_gen",
            Stage::DabfBuild => "dabf_build",
            Stage::Pruning => "pruning",
            Stage::TopK => "top_k",
        }
    }

    /// All stages, in order.
    pub const ALL: [Stage; 4] = [
        Stage::CandidateGen,
        Stage::DabfBuild,
        Stage::Pruning,
        Stage::TopK,
    ];
}

/// Work counters attached to a stage report. Only the counters that make
/// sense for a stage are non-zero; the rest stay at their defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Candidates entering the stage.
    pub candidates_in: usize,
    /// Candidates leaving the stage (for [`Stage::TopK`]: shapelets).
    pub candidates_out: usize,
    /// Per-class filter membership queries issued (pruning stages).
    pub dabf_probes: usize,
    /// Utility evaluations: distance computations or rank/abs-dev queries
    /// (selection stages). When the distance cache is active this counts
    /// *requests*, so `utility_evals == kernel_evals + cache_hits`.
    pub utility_evals: usize,
    /// Sliding distances actually computed by the distance cache (misses,
    /// served by the FFT kernel or the naive fallback). Zero when the
    /// cache is off or the stage issues no sliding distances.
    pub kernel_evals: usize,
    /// Sliding distances served from the cache memo.
    pub cache_hits: usize,
    /// Kernel evaluations that degraded to the naive scorer (non-finite
    /// input or an injected kernel failure). Always a subset of
    /// `kernel_evals`, so the partition `utility_evals == kernel_evals +
    /// cache_hits` is undisturbed.
    pub kernel_fallbacks: usize,
    /// Work items the stage dispatched through the scheduler
    /// ([`crate::schedule::TaskPartition`]). A pure function of the
    /// workload and the `chunk_size` knob — invariant across thread
    /// counts (asserted by the obs integration suite), but it *does*
    /// change with `chunk_size` by definition.
    pub sched_items: usize,
    /// Candidates kept by a [`crate::sampling::SampledCandidateSource`]
    /// wrapped around the stage's generator. Zero for dense (unsampled)
    /// runs; for sampled runs it equals the stage's `candidates_out`
    /// while `candidates_in` holds the inner source's dense pool size,
    /// so one record shows how much sampling shrank the pool. A pure
    /// function of (workload, seed) — thread- and chunk-invariant.
    pub sampled_candidates: usize,
}

impl StageCounters {
    /// Component-wise sum.
    pub fn merge(self, other: StageCounters) -> StageCounters {
        StageCounters {
            candidates_in: self.candidates_in + other.candidates_in,
            candidates_out: self.candidates_out + other.candidates_out,
            dabf_probes: self.dabf_probes + other.dabf_probes,
            utility_evals: self.utility_evals + other.utility_evals,
            kernel_evals: self.kernel_evals + other.kernel_evals,
            cache_hits: self.cache_hits + other.cache_hits,
            kernel_fallbacks: self.kernel_fallbacks + other.kernel_fallbacks,
            sched_items: self.sched_items + other.sched_items,
            sampled_candidates: self.sampled_candidates + other.sampled_candidates,
        }
    }

    /// The counters as `(name, value)` pairs — the single source of the
    /// field names used in metrics keys, serialized records, and the
    /// rendered table, so the three views cannot drift apart.
    pub fn fields(&self) -> [(&'static str, usize); 9] {
        [
            ("candidates_in", self.candidates_in),
            ("candidates_out", self.candidates_out),
            ("dabf_probes", self.dabf_probes),
            ("utility_evals", self.utility_evals),
            ("kernel_evals", self.kernel_evals),
            ("cache_hits", self.cache_hits),
            ("kernel_fallbacks", self.kernel_fallbacks),
            ("sched_items", self.sched_items),
            ("sampled_candidates", self.sampled_candidates),
        ]
    }
}

/// One finished stage: what ran, for how long, and how much work it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// Which stage this report describes.
    pub stage: Stage,
    /// Wall-clock time of the stage.
    pub elapsed: Duration,
    /// Work counters.
    pub counters: StageCounters,
}

/// Hook invoked as each stage completes — the replacement for ad-hoc
/// `Instant::now()` bracketing in benches and callers. Implementations
/// must not assume all four stages fire (a pruner may skip
/// [`Stage::DabfBuild`]).
pub trait StageObserver {
    /// Called once per completed stage, in execution order.
    fn on_stage(&mut self, report: &StageReport);
}

/// A [`StageObserver`] that collects reports into a vector — convenient
/// for tests and benches.
#[derive(Debug, Default)]
pub struct CollectingObserver {
    /// The reports observed so far, in arrival order.
    pub reports: Vec<StageReport>,
}

impl StageObserver for CollectingObserver {
    fn on_stage(&mut self, report: &StageReport) {
        self.reports.push(*report);
    }
}

/// The full telemetry of one engine run: every stage report, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    stages: Vec<StageReport>,
}

impl RunReport {
    /// Assembles a report from externally collected stage reports (e.g. a
    /// [`CollectingObserver`] attached to an engine without keeping the
    /// [`DiscoveryResult`]).
    pub fn from_reports(stages: Vec<StageReport>) -> Self {
        Self { stages }
    }

    /// All stage reports, in execution order.
    pub fn stages(&self) -> &[StageReport] {
        &self.stages
    }

    /// The report of one stage, if it ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageReport> {
        self.stages.iter().find(|r| r.stage == stage)
    }

    /// Elapsed time of one stage (zero when it did not run).
    pub fn elapsed(&self, stage: Stage) -> Duration {
        self.stage(stage)
            .map(|r| r.elapsed)
            .unwrap_or(Duration::ZERO)
    }

    /// Total wall-clock across all stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|r| r.elapsed).sum()
    }

    /// Counters summed over all stages.
    pub fn counters(&self) -> StageCounters {
        self.stages
            .iter()
            .fold(StageCounters::default(), |acc, r| acc.merge(r.counters))
    }

    /// The legacy fixed-field timing view (Table V's breakdown).
    pub fn timings(&self) -> StageTimings {
        StageTimings {
            candidate_gen: self.elapsed(Stage::CandidateGen),
            dabf_build: self.elapsed(Stage::DabfBuild),
            pruning: self.elapsed(Stage::Pruning),
            top_k: self.elapsed(Stage::TopK),
        }
    }

    /// Renders a fixed-width per-stage table (used by the bench bins).
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "stage           time_ms      in     out  probes   evals  kevals    hits  fbacks   items sampled\n",
        );
        for r in &self.stages {
            out.push_str(&format!(
                "{:<14} {:>8.2} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
                r.stage.name(),
                r.elapsed.as_secs_f64() * 1e3,
                r.counters.candidates_in,
                r.counters.candidates_out,
                r.counters.dabf_probes,
                r.counters.utility_evals,
                r.counters.kernel_evals,
                r.counters.cache_hits,
                r.counters.kernel_fallbacks,
                r.counters.sched_items,
                r.counters.sampled_candidates,
            ));
        }
        out.push_str(&format!(
            "{:<14} {:>8.2}\n",
            "total",
            self.total().as_secs_f64() * 1e3
        ));
        out
    }

    /// The report as a metrics snapshot: one `stage.{name}` span per
    /// stage report plus one `{name}.{counter}` counter per non-zero
    /// [`StageCounters`] field — the serialized view consumed by
    /// `bench_pipeline` and `scripts/check_bench.py`. Repeated reports of
    /// the same stage fold additively (span count > 1, counters summed),
    /// so the snapshot's totals always agree with
    /// [`counters`](RunReport::counters).
    pub fn to_metrics(&self) -> MetricsSnapshot {
        let registry = MetricsRegistry::new();
        for r in &self.stages {
            let ns = u64::try_from(r.elapsed.as_nanos()).unwrap_or(u64::MAX);
            registry.observe_ns(&format!("stage.{}", r.stage.name()), ns);
            for (field, value) in r.counters.fields() {
                if value > 0 {
                    registry.incr(&format!("{}.{field}", r.stage.name()), value as u64);
                }
            }
        }
        registry.snapshot()
    }

    /// The report as a versioned [`RunRecord`] with the given identity —
    /// what runners serialize to disk.
    pub fn to_record(&self, kind: &str, label: &str) -> RunRecord {
        RunRecord::new(kind, label).with_metrics(self.to_metrics())
    }
}

// ---------------------------------------------------------------------------
// Execution context: worker pool + scratch + telemetry sink
// ---------------------------------------------------------------------------

/// A lightweight handle describing how many worker threads stage
/// implementations may use. Threads are spawned scoped per [`run`] call
/// (`std::thread::scope`), so the pool itself holds no OS resources and
/// is freely copyable.
///
/// [`run`]: WorkerPool::run
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool with `num_threads` workers; `0` resolves to the machine's
    /// available parallelism.
    pub fn new(num_threads: usize) -> Self {
        let threads = if num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            num_threads
        };
        Self { threads }
    }

    /// The resolved worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Evaluates `f(0), …, f(n-1)` and returns the results in index
    /// order. With more than one worker the tasks self-schedule: workers
    /// claim the next unclaimed index from a shared atomic counter, so an
    /// expensive task never strands the rest of a pre-assigned chunk on
    /// one thread. Each worker accumulates `(index, result)` pairs
    /// privately and the results are merged in index order after the
    /// scope joins — claim order never influences the output.
    ///
    /// A panicking task re-panics here (with the original message in the
    /// payload) after every sibling has finished; callers that must not
    /// unwind use [`try_run`](WorkerPool::try_run).
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run(n, f) {
            Ok(out) => out,
            Err(msg) => panic!("worker task panicked: {msg}"),
        }
    }

    /// Panic-containing variant of [`run`](WorkerPool::run): each task is
    /// wrapped in `catch_unwind`, so one panicking task never poisons its
    /// siblings — every other index still completes. Returns the first
    /// panicking task's message (in index order) as `Err`.
    pub fn try_run<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, String>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        let catch = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| panic_message(p.as_ref()))
        };
        let threads = self.threads().min(n);
        let slots: Vec<Result<T, String>> = if threads <= 1 {
            (0..n).map(catch).collect()
        } else {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let catch = &catch;
                        let next = &next;
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                local.push((i, catch(i)));
                            }
                            local
                        })
                    })
                    .collect();
                for handle in handles {
                    // The task body is panic-caught by `catch`, so a join
                    // error cannot carry a lost result; an (impossible)
                    // harness panic would leave a hole and trip the
                    // "every index evaluated" check below.
                    if let Ok(local) = handle.join() {
                        for (i, result) in local {
                            slots[i] = Some(result);
                        }
                    }
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("every index evaluated"))
                .collect()
        };
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.push(slot?);
        }
        Ok(out)
    }
}

/// Renders a `catch_unwind` payload as text: the panic message for the
/// ordinary `&str` / `String` payloads, a placeholder otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Reusable scratch state shared across stages of one run: recycled
/// buffers for the sequential scoring path, and the run's accumulated
/// [`DistCache`] — the distances later stages (and, via
/// [`ExecContext::take_dist_cache`], the shapelet transform after
/// discovery) look up instead of recomputing, plus the run's counters.
#[derive(Debug, Default)]
pub struct Scratch {
    f64_bufs: Vec<Vec<f64>>,
    dist_cache: DistCache,
}

impl Scratch {
    /// Takes a cleared `f64` buffer (recycled if one is available).
    pub fn take_f64(&mut self) -> Vec<f64> {
        let mut buf = self.f64_bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a buffer for reuse.
    pub fn recycle_f64(&mut self, buf: Vec<f64>) {
        self.f64_bufs.push(buf);
    }

    /// The run's accumulated distance cache.
    pub fn dist_cache(&mut self) -> &mut DistCache {
        &mut self.dist_cache
    }

    /// Folds a stage-local cache into the run cache. Callers merge in
    /// deterministic order.
    pub fn absorb_dist_cache(&mut self, cache: DistCache) {
        self.dist_cache.absorb(cache);
    }
}

/// Per-run execution state handed to every stage: worker pool, scratch
/// buffers, and the telemetry sinks (the structured [`RunReport`] plus a
/// shared [`MetricsRegistry`] every recorded stage is mirrored into).
pub struct ExecContext<'o> {
    workers: WorkerPool,
    scratch: Scratch,
    report: RunReport,
    metrics: MetricsRegistry,
    observer: Option<&'o mut dyn StageObserver>,
    faults: FaultPlan,
    deadline: Option<Instant>,
    sched_notes: Vec<(Stage, usize)>,
    counter_notes: Vec<(Stage, StageCounters)>,
}

impl<'o> ExecContext<'o> {
    /// A context running on `workers` with no observer attached.
    pub fn new(workers: WorkerPool) -> Self {
        Self {
            workers,
            scratch: Scratch::default(),
            report: RunReport::default(),
            metrics: MetricsRegistry::new(),
            observer: None,
            faults: FaultPlan::default(),
            deadline: None,
            sched_notes: Vec::new(),
            counter_notes: Vec::new(),
        }
    }

    /// Attaches a [`StageObserver`] that sees each stage as it finishes.
    pub fn with_observer(mut self, observer: &'o mut dyn StageObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Shares an external [`MetricsRegistry`] (replacing the context's
    /// own): stages recorded here land next to whatever else the caller
    /// measures — classifier heads, baseline sweeps, bench loops.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// The context's metrics registry (clone it to share: clones view the
    /// same underlying state).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The worker pool (copy; stages may call [`WorkerPool::run`]).
    pub fn workers(&self) -> WorkerPool {
        self.workers
    }

    /// The run's fault plan (inert unless the engine was built with
    /// [`Engine::with_faults`]). Stage implementations consult it for the
    /// faults they own — e.g. the selector arms the distance cache's
    /// forced kernel failure.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The wall-clock deadline from the run's [`DiscoveryBudget`]
    /// (`None` when unlimited), and whether it has already passed.
    ///
    /// [`DiscoveryBudget`]: crate::config::DiscoveryBudget
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True when a deadline is set and has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The shared scratch buffers.
    pub fn scratch(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    /// Detaches the run's accumulated distance cache — the classifier
    /// hands it to the shapelet transform, which starts from the
    /// selection's (shapelet, training series) distances and counters and
    /// builds its own FFT plans.
    pub fn take_dist_cache(&mut self) -> DistCache {
        std::mem::take(self.scratch.dist_cache())
    }

    /// Buffers a stage's scheduler work-item count until that stage's
    /// [`record`](ExecContext::record) call drains it into the stage
    /// counters. Stage-keyed rather than "most recent" because a stage
    /// body may run before an *earlier* stage label is recorded (the
    /// pruner executes before both the `DabfBuild` and `Pruning` records
    /// are written).
    pub fn note_sched_items(&mut self, stage: Stage, items: usize) {
        self.sched_notes.push((stage, items));
    }

    /// Buffers extra counters for a stage until its
    /// [`record`](ExecContext::record) call merges them in — the general
    /// form of [`note_sched_items`](ExecContext::note_sched_items), used
    /// by stage *wrappers* (e.g.
    /// [`SampledCandidateSource`](crate::sampling::SampledCandidateSource))
    /// that add telemetry to a stage whose record the engine writes.
    pub fn note_counters(&mut self, stage: Stage, counters: StageCounters) {
        self.counter_notes.push((stage, counters));
    }

    /// Records a finished stage: drains any buffered
    /// [`note_sched_items`](ExecContext::note_sched_items) for it into
    /// the counters, forwards the report to the observer, appends it to
    /// the run report, and mirrors it into the metrics registry (a
    /// `stage.{name}` span plus `{name}.{counter}` counters, matching
    /// [`RunReport::to_metrics`]).
    pub fn record(&mut self, stage: Stage, elapsed: Duration, counters: StageCounters) {
        let mut counters = counters;
        self.sched_notes.retain(|&(s, items)| {
            if s == stage {
                counters.sched_items += items;
                false
            } else {
                true
            }
        });
        self.counter_notes.retain(|&(s, noted)| {
            if s == stage {
                counters = counters.merge(noted);
                false
            } else {
                true
            }
        });
        let report = StageReport {
            stage,
            elapsed,
            counters,
        };
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_stage(&report);
        }
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.metrics
            .observe_ns(&format!("stage.{}", stage.name()), ns);
        for (field, value) in counters.fields() {
            if value > 0 {
                self.metrics
                    .incr(&format!("{}.{field}", stage.name()), value as u64);
            }
        }
        self.report.stages.push(report);
    }

    /// Consumes the context, yielding the accumulated telemetry.
    pub fn into_report(self) -> RunReport {
        self.report
    }
}

// ---------------------------------------------------------------------------
// Stage traits
// ---------------------------------------------------------------------------

/// Stage 1: produce the candidate pool. Implementations own their
/// configuration, so methods with different parameter sets (IPS,
/// baselines) fit the same trait.
pub trait CandidateSource: Send + Sync {
    /// Generates the pool from the training set.
    fn generate(&self, train: &Dataset, ctx: &mut ExecContext) -> Result<CandidatePool, IpsError>;
}

/// Outcome of the pruning stage.
pub struct PruneOutcome {
    /// Candidates removed.
    pub pruned: usize,
    /// The filter, when one was built (needed by DT selection).
    pub dabf: Option<Dabf>,
    /// Time spent building the filter (reported as [`Stage::DabfBuild`];
    /// zero when no filter is built).
    pub dabf_build: Duration,
    /// Filter membership queries issued.
    pub probes: usize,
}

/// Stages 2–3: build the filter (if any) and prune the pool in place.
pub trait Pruner: Send + Sync {
    /// Prunes `pool`, returning what was removed and what was built.
    fn prune(
        &self,
        pool: &mut CandidatePool,
        ctx: &mut ExecContext,
    ) -> Result<PruneOutcome, IpsError>;
}

/// Outcome of the selection stage.
pub struct Selection {
    /// Selected shapelets, grouped per class, best-first within a class.
    pub shapelets: Vec<Shapelet>,
    /// Utility evaluations performed (distance *requests* when the
    /// distance cache is active).
    pub utility_evals: usize,
    /// Distance-cache work: computed evaluations + memo hits. Zero for
    /// selectors that issue no sliding distances (DT+CR, rank-based).
    pub cache_stats: CacheStats,
    /// True when a [`DiscoveryBudget`](crate::config::DiscoveryBudget)
    /// deadline cut scoring short — the shapelets are the best of the
    /// classes that were scored, not all of them.
    pub degraded: bool,
}

/// Stage 4: score the surviving candidates and select the shapelets.
pub trait Selector: Send + Sync {
    /// Selects shapelets from the pruned pool.
    fn select(
        &self,
        pool: &CandidatePool,
        train: &Dataset,
        dabf: Option<&Dabf>,
        ctx: &mut ExecContext,
    ) -> Result<Selection, IpsError>;
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// A composed discovery pipeline: one [`CandidateSource`], one
/// [`Pruner`], one [`Selector`], driven stage by stage with uniform
/// timing and counting.
pub struct Engine {
    source: Box<dyn CandidateSource>,
    pruner: Box<dyn Pruner>,
    selector: Box<dyn Selector>,
    workers: WorkerPool,
    config: Option<IpsConfig>,
    faults: FaultPlan,
}

impl Engine {
    /// Composes an engine from explicit stages (no configuration to
    /// validate, no discovery budget).
    pub fn new(
        source: Box<dyn CandidateSource>,
        pruner: Box<dyn Pruner>,
        selector: Box<dyn Selector>,
    ) -> Self {
        Self {
            source,
            pruner,
            selector,
            workers: WorkerPool::new(1),
            config: None,
            faults: FaultPlan::default(),
        }
    }

    /// The standard IPS composition for a configuration: profile-based
    /// generation, DABF (or naive) pruning, utility selection, with the
    /// worker pool sized by `config.num_threads`. The configuration is
    /// kept, so every run validates it and honors its
    /// [`DiscoveryBudget`](crate::config::DiscoveryBudget).
    pub fn from_config(config: &IpsConfig) -> Self {
        let pruner: Box<dyn Pruner> = if config.use_dabf {
            Box::new(DabfPruner::new(config.clone()))
        } else {
            Box::new(NaivePruner::new(config.clone()))
        };
        let mut source: Box<dyn CandidateSource> =
            Box::new(ProfileCandidateSource::new(config.clone()));
        if let Some(sampling) = config.candidate_sampling {
            source = Box::new(crate::sampling::SampledCandidateSource::new(
                source,
                sampling,
                config.seed,
            ));
        }
        Self {
            source,
            pruner,
            selector: Box::new(UtilitySelector::new(config.clone())),
            workers: WorkerPool::new(config.num_threads),
            config: Some(config.clone()),
            faults: FaultPlan::default(),
        }
    }

    /// Overrides the worker pool.
    pub fn with_workers(mut self, workers: WorkerPool) -> Self {
        self.workers = workers;
        self
    }

    /// Arms a fault plan for every subsequent run (chaos testing only;
    /// the default plan is inert).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// A fresh execution context sized for this engine's worker pool —
    /// pass it to [`run_with_ctx`] to retain post-run state (notably the
    /// distance cache) that [`run`] would discard.
    ///
    /// [`run`]: Engine::run
    /// [`run_with_ctx`]: Engine::run_with_ctx
    pub fn make_context(&self) -> ExecContext<'static> {
        ExecContext::new(self.workers)
    }

    /// Runs the staged pipeline.
    pub fn run(&self, train: &Dataset) -> Result<DiscoveryResult, PipelineError> {
        let mut ctx = ExecContext::new(self.workers);
        self.run_with_ctx(train, &mut ctx)
    }

    /// Runs the staged pipeline, reporting each stage to `observer` as it
    /// completes.
    pub fn run_with_observer(
        &self,
        train: &Dataset,
        observer: &mut dyn StageObserver,
    ) -> Result<DiscoveryResult, PipelineError> {
        let mut ctx = ExecContext::new(self.workers).with_observer(observer);
        self.run_with_ctx(train, &mut ctx)
    }

    /// Runs the staged pipeline in a caller-owned context, leaving
    /// post-run state (scratch buffers, the accumulated distance cache)
    /// available on `ctx` afterwards.
    ///
    /// Validates the configuration (when the engine holds one) and the
    /// training set before any stage runs; runs every stage under a
    /// panic guard ([`IpsError::StageFailed`]); and enforces the
    /// configuration's [`DiscoveryBudget`], degrading to a best-so-far
    /// result (`degraded = true`) when a limit trips mid-run.
    ///
    /// [`DiscoveryBudget`]: crate::config::DiscoveryBudget
    pub fn run_with_ctx(
        &self,
        train: &Dataset,
        ctx: &mut ExecContext,
    ) -> Result<DiscoveryResult, PipelineError> {
        if let Some(config) = &self.config {
            config.validate()?;
        }
        // Data faults corrupt a private copy before validation — the
        // validation pass is exactly what must catch them.
        let corrupted;
        let train = if self.faults.is_inert() {
            train
        } else {
            corrupted = self.faults.corrupt_dataset(train);
            &corrupted
        };
        train.validate()?;

        let budget = self.config.as_ref().map(|c| c.budget).unwrap_or_default();
        ctx.deadline = budget.max_wall_clock.map(|limit| Instant::now() + limit);
        ctx.faults = self.faults.clone();
        let faults = &self.faults;
        let mut degraded = false;

        // Stage 1: candidate generation.
        let t0 = Instant::now();
        let mut pool = guard(Stage::CandidateGen, || {
            faults.trip_stage_panic(Stage::CandidateGen);
            self.source.generate(train, ctx)
        })?;
        let generated = pool.len();
        ctx.record(
            Stage::CandidateGen,
            t0.elapsed(),
            StageCounters {
                candidates_out: generated,
                ..Default::default()
            },
        );
        if pool.is_empty() {
            return Err(PipelineError::NoCandidates);
        }
        // `max_candidates` applies to the pool the source *emitted* — for
        // a sampled source that is the already-subsampled pool, so the
        // budget stamps `degraded` only when it cuts the sampled pool
        // itself, never merely because the dense pre-sampling pool was
        // larger (pinned by `sampling_budget` in the equivalence suite).
        if let Some(max) = budget.max_candidates {
            if pool.len() > max {
                pool.truncate(max);
                degraded = true;
            }
        }

        // Stages 2–3: filter construction + pruning. The pruner reports
        // one combined wall-clock; the engine splits out the build time
        // it declares so DabfBuild and Pruning stay separately visible.
        // A deadline that already passed skips pruning entirely (the
        // selector copes with an unpruned pool; the DT optimization
        // silently falls back to exact scoring without a DABF).
        let entering = pool.len();
        let t1 = Instant::now();
        let outcome = if ctx.deadline_exceeded() {
            degraded = true;
            PruneOutcome {
                pruned: 0,
                dabf: None,
                dabf_build: Duration::ZERO,
                probes: 0,
            }
        } else {
            let label = if faults.should_panic(Stage::DabfBuild) {
                Stage::DabfBuild
            } else {
                Stage::Pruning
            };
            guard(label, || {
                faults.trip_stage_panic(Stage::DabfBuild);
                faults.trip_stage_panic(Stage::Pruning);
                self.pruner.prune(&mut pool, ctx)
            })?
        };
        let prune_total = t1.elapsed();
        ctx.record(
            Stage::DabfBuild,
            outcome.dabf_build,
            StageCounters::default(),
        );
        ctx.record(
            Stage::Pruning,
            prune_total.saturating_sub(outcome.dabf_build),
            StageCounters {
                candidates_in: entering,
                candidates_out: pool.len(),
                dabf_probes: outcome.probes,
                ..Default::default()
            },
        );

        // Stage 4: selection.
        let t2 = Instant::now();
        let survivors = pool.len();
        let selection = guard(Stage::TopK, || {
            faults.trip_stage_panic(Stage::TopK);
            self.selector
                .select(&pool, train, outcome.dabf.as_ref(), ctx)
        })?;
        degraded |= selection.degraded;
        ctx.record(
            Stage::TopK,
            t2.elapsed(),
            StageCounters {
                candidates_in: survivors,
                candidates_out: selection.shapelets.len(),
                utility_evals: selection.utility_evals,
                kernel_evals: selection.cache_stats.kernel_evals,
                cache_hits: selection.cache_stats.cache_hits,
                kernel_fallbacks: selection.cache_stats.kernel_fallbacks,
                ..Default::default()
            },
        );
        if selection.shapelets.is_empty() {
            return Err(if degraded {
                IpsError::BudgetExhausted {
                    budget: if ctx.deadline.is_some() {
                        "max_wall_clock"
                    } else {
                        "max_candidates"
                    },
                    detail: "budget tripped before any shapelet was selected".to_string(),
                }
            } else {
                PipelineError::NoCandidates
            });
        }

        let report = std::mem::take(&mut ctx.report);
        Ok(DiscoveryResult {
            shapelets: selection.shapelets,
            timings: report.timings(),
            candidates_generated: generated,
            candidates_pruned: outcome.pruned,
            degraded,
            report,
        })
    }
}

/// Runs one stage closure under `catch_unwind`: a panic anywhere in the
/// stage (its own code or a worker task re-panic) becomes
/// [`IpsError::StageFailed`] carrying the stage name and the panic
/// message, so one bad stage can never abort the caller.
fn guard<T>(stage: Stage, f: impl FnOnce() -> Result<T, IpsError>) -> Result<T, IpsError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(IpsError::StageFailed {
            stage: stage.name(),
            reason: panic_message(payload.as_ref()),
        }),
    }
}

// ---------------------------------------------------------------------------
// Default IPS stage implementations
// ---------------------------------------------------------------------------

/// Algorithm 1 as a [`CandidateSource`]: sample-granular instance-profile
/// sampling on the work-item scheduler. Bit-identical at any worker count
/// and chunk size because each *(class, sample)* pair derives its own RNG
/// stream from `(seed, class, sample)` and items merge in class-major,
/// sample order.
pub struct ProfileCandidateSource {
    config: IpsConfig,
}

impl ProfileCandidateSource {
    /// A source for one configuration.
    pub fn new(config: IpsConfig) -> Self {
        Self { config }
    }
}

impl CandidateSource for ProfileCandidateSource {
    fn generate(&self, train: &Dataset, ctx: &mut ExecContext) -> Result<CandidatePool, IpsError> {
        let (pool, items) = crate::parallel::generate_with_pool(train, &self.config, ctx.workers());
        ctx.note_sched_items(Stage::CandidateGen, items);
        Ok(pool)
    }
}

/// Partitions each class's candidate list into probe ranges, evaluates
/// `survivors` over every range on the scheduler, and applies the
/// concatenated flags per class. Shared skeleton of [`DabfPruner`] and
/// [`NaivePruner`]: each flag is a pure function of the immutable
/// filter(s) and one candidate, and probe counts sum, so any chunking
/// reproduces the sequential pass bit-for-bit.
fn prune_scheduled(
    pool: &mut CandidatePool,
    ctx: &mut ExecContext,
    chunk: crate::schedule::ChunkSize,
    survivors: impl Fn(&CandidatePool, u32, usize, usize) -> (Vec<bool>, usize) + Sync,
) -> (usize, usize) {
    let classes = pool.classes();
    let units: Vec<usize> = classes.iter().map(|&c| pool.of_class(c).len()).collect();
    let partition = TaskPartition::new(&units, chunk);
    ctx.note_sched_items(Stage::Pruning, partition.len());
    let workers = ctx.workers();
    let per_item = {
        let pool = &*pool;
        partition.run(&workers, |item| {
            survivors(pool, classes[item.class_idx], item.start, item.end)
        })
    };
    let mut pruned = 0;
    let mut probes = 0;
    for (&class, chunks) in classes.iter().zip(partition.group_by_class(per_item)) {
        let mut flags = Vec::new();
        for (chunk_flags, chunk_probes) in chunks {
            flags.extend(chunk_flags);
            probes += chunk_probes;
        }
        pruned += apply_survivors(pool, class, &flags);
    }
    (pruned, probes)
}

/// Algorithms 2 & 3 as a [`Pruner`]: build the DABF, then prune on the
/// work-item scheduler — each class's candidate list is cut into probe
/// ranges so the whole pool's pruning work load-balances across every
/// worker even on a 2-class dataset.
pub struct DabfPruner {
    config: IpsConfig,
}

impl DabfPruner {
    /// A pruner for one configuration.
    pub fn new(config: IpsConfig) -> Self {
        Self { config }
    }
}

impl Pruner for DabfPruner {
    fn prune(
        &self,
        pool: &mut CandidatePool,
        ctx: &mut ExecContext,
    ) -> Result<PruneOutcome, IpsError> {
        let t = Instant::now();
        let dabf = build_dabf(pool, &self.config);
        let dabf_build = t.elapsed();
        let (pruned, probes) = prune_scheduled(pool, ctx, self.config.chunk_size, |p, c, s, e| {
            dabf_survivors_range(p, &dabf, c, s, e)
        });
        Ok(PruneOutcome {
            pruned,
            dabf: Some(dabf),
            dabf_build,
            probes,
        })
    }
}

/// The quadratic reference pruner (Fig. 10a's "no DABF" ablation) behind
/// the same trait: naive per-class filters, probe ranges scheduled the
/// same way as [`DabfPruner`].
pub struct NaivePruner {
    config: IpsConfig,
}

impl NaivePruner {
    /// A pruner for one configuration.
    pub fn new(config: IpsConfig) -> Self {
        Self { config }
    }
}

impl Pruner for NaivePruner {
    fn prune(
        &self,
        pool: &mut CandidatePool,
        ctx: &mut ExecContext,
    ) -> Result<PruneOutcome, IpsError> {
        let filters = naive_filters(pool, &self.config);
        let (pruned, probes) = prune_scheduled(pool, ctx, self.config.chunk_size, |p, c, s, e| {
            naive_survivors_range(p, &filters, c, s, e)
        });
        Ok(PruneOutcome {
            pruned,
            dabf: None,
            dabf_build: Duration::ZERO,
            probes,
        })
    }
}

/// A pass-through pruner for methods without a pruning phase (several
/// baselines). Reports zero work.
pub struct NoopPruner;

impl Pruner for NoopPruner {
    fn prune(
        &self,
        _pool: &mut CandidatePool,
        _ctx: &mut ExecContext,
    ) -> Result<PruneOutcome, IpsError> {
        Ok(PruneOutcome {
            pruned: 0,
            dabf: None,
            dabf_build: Duration::ZERO,
            probes: 0,
        })
    }
}

/// Algorithm 4 as a [`Selector`]: utility scoring (exact or DT+CR)
/// followed by the diversity-guarded priority-queue poll.
///
/// Exact scoring runs record → evaluate → replay per class, bit-identical
/// to the per-request reference [`score_exact`](crate::score_exact) at any
/// thread count *and* chunk size:
///
/// 1. **Record** — `exact_request_plan` enumerates the class's
///    sliding-distance requests without computing any (the scoring core
///    has no distance-value-dependent control flow) and dedupes them by
///    the distance cache's own memo key.
/// 2. **Evaluate** — the *unique* requests are cut into [`TaskPartition`]
///    items, and each item runs [`DistCache::evaluate`]: series-major,
///    window statistics shared per (series, query length), every request
///    routed exactly as a memo miss would be. Items return plain result
///    vectors — no per-item memo — and book one eval per unique request
///    plus the class's duplicates as hits, the counts a per-class memo
///    would book whatever the chunking.
/// 3. **Replay** — `score_exact_replay` re-runs the scoring core
///    sequentially per class, feeding request *r* its evaluated distance:
///    the floating-point accumulation order is the reference's.
///
/// The run's session cache then receives only the evaluated distances the
/// training transform will look up — one per (selected shapelet, training
/// series) pair under the transform's metric — plus the full counters.
///
/// DT+CR scores over a class's rank table are inherently class-granular
/// and run on a [`TaskPartition::per_class`] partition. A wall-clock
/// budget scores classes one at a time through the same functions (one
/// item per class) and checks the deadline between classes.
pub struct UtilitySelector {
    config: IpsConfig,
}

/// One class's evaluated exact-scoring requests.
struct ExactClass<'a> {
    plan: ClassRequests<'a>,
    results: Vec<(f64, usize)>,
    stats: CacheStats,
}

impl UtilitySelector {
    /// A selector for one configuration.
    pub fn new(config: IpsConfig) -> Self {
        Self { config }
    }

    /// The routing every unique request takes: a cache with no memo whose
    /// policy and fault hooks are the ones a per-class memo would carry.
    /// Without the FFT kernel every request takes the naive loop.
    fn evaluator(&self, inject_kernel: bool) -> DistCache {
        if !self.config.use_fft_kernel {
            return DistCache::with_policy(KernelPolicy::ForceNaive);
        }
        if !inject_kernel {
            return DistCache::new();
        }
        // The kernel fault forces the kernel *path* too (ForceKernel):
        // under the Auto crossover small inputs would never attempt the
        // FFT and the injected failure would be vacuous. Every eval then
        // attempts the kernel, fails, and must degrade cleanly.
        let mut cache = DistCache::with_policy(KernelPolicy::ForceKernel);
        cache.inject_kernel_failure("fault plan: kernel_error");
        cache
    }

    /// Records and evaluates the exact-scoring requests of every class
    /// (of the leading classes only, when a deadline cuts scoring short;
    /// the flag reports the cut).
    fn evaluate_exact<'a>(
        &self,
        pool: &'a CandidatePool,
        train: &'a Dataset,
        classes: &[u32],
        ctx: &mut ExecContext,
    ) -> (Vec<ExactClass<'a>>, bool) {
        let evaluator = self.evaluator(ctx.faults().kernel_error);
        let plan_of = |c: u32| exact_request_plan(pool, train, &self.config, c);
        let Some(deadline) = ctx.deadline() else {
            let plans: Vec<ClassRequests> = classes.iter().map(|&c| plan_of(c)).collect();
            let units: Vec<usize> = plans.iter().map(|p| p.unique.len()).collect();
            let partition = TaskPartition::new(&units, self.config.chunk_size);
            ctx.note_sched_items(Stage::TopK, partition.len());
            let per_item = partition.run(&ctx.workers(), |item| {
                evaluator.evaluate(&plans[item.class_idx].unique[item.start..item.end])
            });
            let grouped = partition.group_by_class(per_item);
            let exact = plans
                .into_iter()
                .zip(grouped)
                .map(|(plan, chunks)| {
                    let mut results = Vec::with_capacity(plan.unique.len());
                    let mut stats = CacheStats::default();
                    for (chunk, chunk_stats) in chunks {
                        results.extend(chunk);
                        stats.merge(&chunk_stats);
                    }
                    ExactClass {
                        plan,
                        results,
                        stats,
                    }
                })
                .collect();
            return (exact, false);
        };
        // At least one class is always scored, so a degraded run still
        // yields its best-so-far.
        let mut exact = Vec::with_capacity(classes.len());
        for (i, &c) in classes.iter().enumerate() {
            if i > 0 && Instant::now() >= deadline {
                return (exact, true);
            }
            let plan = plan_of(c);
            let (results, stats) = evaluator.evaluate(&plan.unique);
            exact.push(ExactClass {
                plan,
                results,
                stats,
            });
        }
        (exact, false)
    }

    /// DT+CR scores per class, with the same deadline rule as the exact
    /// path.
    fn score_dt_cr(
        &self,
        pool: &CandidatePool,
        train: &Dataset,
        dabf: &Dabf,
        classes: &[u32],
        ctx: &mut ExecContext,
    ) -> (Vec<(Vec<f64>, usize)>, bool) {
        let score = |c: u32| score_dt_cr_counted(pool, train, dabf, &self.config, c);
        let Some(deadline) = ctx.deadline() else {
            // Rank-table scoring is class-granular by nature: one work
            // item per class (every listed class holds ≥ 1 candidate, so
            // items align 1:1 with `classes` in class order).
            let units: Vec<usize> = classes.iter().map(|&c| pool.of_class(c).len()).collect();
            let partition = TaskPartition::per_class(&units);
            ctx.note_sched_items(Stage::TopK, partition.len());
            let scored = partition.run(&ctx.workers(), |item| score(classes[item.class_idx]));
            return (scored, false);
        };
        let mut scored = Vec::with_capacity(classes.len());
        for (i, &c) in classes.iter().enumerate() {
            if i > 0 && Instant::now() >= deadline {
                return (scored, true);
            }
            scored.push(score(c));
        }
        (scored, false)
    }

    /// Files into the run's session cache the evaluated distances the
    /// training transform will look up — keyed as it queries each selected
    /// shapelet against each training series — and books `stats`, the
    /// whole selection's distance work.
    fn keep_for_transform(
        &self,
        exact: &[ExactClass<'_>],
        shapelets: &[Shapelet],
        train: &Dataset,
        stats: &CacheStats,
        cache: &mut DistCache,
    ) {
        let metric = if self.config.znorm_transform {
            Metric::ZNormEuclidean
        } else {
            Metric::MeanSquared
        };
        let queries: Vec<&[f64]> = shapelets.iter().map(|s| s.values.as_slice()).collect();
        let series: Vec<&[f64]> = train.all_series().iter().map(|s| s.values()).collect();
        let wanted: HashSet<MinDistKey> =
            cross_keys(&queries, &series, metric).into_iter().collect();
        let entries = exact
            .iter()
            .flat_map(|e| e.plan.unique.iter().zip(&e.results))
            .filter(|(req, _)| wanted.contains(&req.key()))
            .map(|(req, &result)| (req.key(), result));
        cache.absorb_results(entries, stats);
    }
}

impl Selector for UtilitySelector {
    fn select(
        &self,
        pool: &CandidatePool,
        train: &Dataset,
        dabf: Option<&Dabf>,
        ctx: &mut ExecContext,
    ) -> Result<Selection, IpsError> {
        // DT requires a DABF; fall back to exact scoring when pruning ran
        // without one, even if DT+CR was requested.
        let mode = match (self.config.use_dt_cr, dabf) {
            (true, Some(d)) => ScoreMode::DtCr(d),
            _ => ScoreMode::Exact,
        };
        let classes = pool.classes();
        let (scored, exact, degraded) = match mode {
            ScoreMode::DtCr(dabf) => {
                let (scored, degraded) = self.score_dt_cr(pool, train, dabf, &classes, ctx);
                (scored, Vec::new(), degraded)
            }
            ScoreMode::Exact => {
                let (exact, degraded) = self.evaluate_exact(pool, train, &classes, ctx);
                let mut buf = ctx.scratch().take_f64();
                let scored = classes
                    .iter()
                    .zip(&exact)
                    .map(|(&c, e)| {
                        score_exact_replay(pool, train, c, &mut buf, &e.plan, &e.results)
                    })
                    .collect();
                ctx.scratch().recycle_f64(buf);
                (scored, exact, degraded)
            }
        };
        let mut shapelets = Vec::new();
        let mut utility_evals = 0;
        for (&class, (scores, evals)) in classes.iter().zip(scored) {
            utility_evals += evals;
            select_class_from_scores(pool, class, &scores, &self.config, &mut shapelets);
        }
        // Distance-cache counters exist only when the cache is on: one
        // eval per unique request, the class's repeats as memo hits.
        let mut cache_stats = CacheStats::default();
        if self.config.use_fft_kernel {
            for e in &exact {
                cache_stats.merge(&e.stats);
                cache_stats.cache_hits += e.plan.duplicate_requests();
            }
            if !exact.is_empty() {
                self.keep_for_transform(
                    &exact,
                    &shapelets,
                    train,
                    &cache_stats,
                    ctx.scratch().dist_cache(),
                );
            }
        }
        Ok(Selection {
            shapelets,
            utility_evals,
            cache_stats,
            degraded,
        })
    }
}

/// A generic rank-based selector: per class, the `k` candidates with the
/// highest `ip_value` (stable on ties), mapped directly to shapelets.
/// Used by baselines whose candidate score is computed at generation
/// time.
pub struct ScoreRankSelector {
    /// Shapelets per class.
    pub k: usize,
}

impl Selector for ScoreRankSelector {
    fn select(
        &self,
        pool: &CandidatePool,
        _train: &Dataset,
        _dabf: Option<&Dabf>,
        _ctx: &mut ExecContext,
    ) -> Result<Selection, IpsError> {
        let mut shapelets = Vec::new();
        let mut utility_evals = 0;
        for class in pool.classes() {
            let cands = pool.of_class(class);
            utility_evals += cands.len();
            let mut order: Vec<usize> = (0..cands.len()).collect();
            // total_cmp: a NaN score sorts deterministically instead of
            // panicking the whole run.
            order.sort_by(|&a, &b| cands[b].ip_value.total_cmp(&cands[a].ip_value));
            for &i in order.iter().take(self.k) {
                let c = &cands[i];
                shapelets.push(Shapelet {
                    values: c.values.clone(),
                    class,
                    source_instance: c.source_instance,
                    source_offset: c.source_offset,
                    score: c.ip_value,
                });
            }
        }
        Ok(Selection {
            shapelets,
            utility_evals,
            cache_stats: CacheStats::default(),
            degraded: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pool_preserves_index_order() {
        for threads in [1, 2, 3, 8, 0] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(10, |i| i * i);
            assert_eq!(
                out,
                (0..10).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn worker_pool_handles_empty_and_tiny_inputs() {
        let pool = WorkerPool::new(4);
        assert!(pool.run(0, |i| i).is_empty());
        assert_eq!(pool.run(1, |i| i + 1), vec![1]);
        assert!(WorkerPool::new(0).threads() >= 1);
    }

    #[test]
    fn try_run_contains_panics_and_siblings_still_complete() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let completed = AtomicUsize::new(0);
            let err = pool
                .try_run(8, |i| {
                    if i == 3 {
                        panic!("task {i} exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                    i
                })
                .unwrap_err();
            assert_eq!(err, "task 3 exploded", "threads={threads}");
            assert_eq!(
                completed.load(Ordering::SeqCst),
                7,
                "siblings must not be poisoned (threads={threads})"
            );
        }
        // The non-panicking path is unchanged.
        assert_eq!(WorkerPool::new(2).try_run(3, |i| i * 2).unwrap(), [0, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "worker task panicked: boom")]
    fn run_repanics_with_the_original_message() {
        WorkerPool::new(2).run(4, |i| {
            if i == 1 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn guard_converts_panics_into_stage_failed() {
        let err = guard::<()>(Stage::Pruning, || panic!("synthetic failure")).unwrap_err();
        match err {
            IpsError::StageFailed { stage, reason } => {
                assert_eq!(stage, "pruning");
                assert_eq!(reason, "synthetic failure");
            }
            other => panic!("expected StageFailed, got {other:?}"),
        }
        // String payloads and non-string payloads both render.
        let err = guard::<()>(Stage::TopK, || panic!("{}", format!("id {}", 7))).unwrap_err();
        assert!(format!("{err}").contains("stage top_k failed: id 7"));
        assert!(guard(Stage::TopK, || Ok(1)).is_ok());
    }

    #[test]
    fn scratch_recycles_buffers() {
        let mut s = Scratch::default();
        let mut b = s.take_f64();
        b.extend([1.0, 2.0]);
        s.recycle_f64(b);
        let b2 = s.take_f64();
        assert!(b2.is_empty(), "recycled buffer must come back cleared");
        assert!(b2.capacity() >= 2, "capacity should be retained");
    }

    #[test]
    fn run_report_sums_and_indexes_stages() {
        let mut ctx = ExecContext::new(WorkerPool::new(1));
        ctx.record(
            Stage::CandidateGen,
            Duration::from_millis(3),
            StageCounters {
                candidates_out: 10,
                ..Default::default()
            },
        );
        ctx.record(
            Stage::Pruning,
            Duration::from_millis(2),
            StageCounters {
                candidates_in: 10,
                candidates_out: 7,
                dabf_probes: 5,
                ..Default::default()
            },
        );
        let report = ctx.into_report();
        assert_eq!(report.total(), Duration::from_millis(5));
        assert_eq!(
            report.stage(Stage::Pruning).unwrap().counters.dabf_probes,
            5
        );
        assert!(report.stage(Stage::TopK).is_none());
        assert_eq!(report.elapsed(Stage::TopK), Duration::ZERO);
        assert_eq!(report.counters().candidates_out, 17);
        let table = report.render_table();
        assert!(table.contains("candidate_gen"));
        assert!(table.contains("pruning"));
    }

    #[test]
    fn context_mirrors_stages_into_metrics() {
        let mut ctx = ExecContext::new(WorkerPool::new(1));
        ctx.record(
            Stage::CandidateGen,
            Duration::from_micros(40),
            StageCounters {
                candidates_out: 12,
                ..Default::default()
            },
        );
        ctx.record(
            Stage::TopK,
            Duration::from_micros(60),
            StageCounters {
                candidates_in: 12,
                utility_evals: 99,
                ..Default::default()
            },
        );
        let live = ctx.metrics().snapshot();
        let report = ctx.into_report();
        // The live mirror and the post-hoc conversion agree exactly.
        assert_eq!(live, report.to_metrics());
        assert_eq!(live.counters["candidate_gen.candidates_out"], 12);
        assert_eq!(live.counters["top_k.utility_evals"], 99);
        assert_eq!(live.spans["stage.top_k"].total_ns, 60_000);
        // Zero-valued counter fields are omitted, not written as zeros.
        assert!(!live.counters.contains_key("candidate_gen.candidates_in"));
    }

    #[test]
    fn report_record_round_trips_and_matches_counters() {
        let mut ctx = ExecContext::new(WorkerPool::new(1));
        ctx.record(
            Stage::Pruning,
            Duration::from_millis(2),
            StageCounters {
                candidates_in: 30,
                candidates_out: 20,
                dabf_probes: 7,
                ..Default::default()
            },
        );
        ctx.record(
            Stage::TopK,
            Duration::from_millis(1),
            StageCounters {
                candidates_in: 20,
                candidates_out: 4,
                utility_evals: 80,
                kernel_evals: 50,
                cache_hits: 30,
                ..Default::default()
            },
        );
        let report = ctx.into_report();
        let record = report.to_record("discovery", "unit");
        let back = ips_obs::RunRecord::from_json_str(&record.to_json_string()).unwrap();
        assert_eq!(back, record);
        // Serialized counters sum to exactly RunReport::counters().
        let totals = report.counters();
        for (field, value) in totals.fields() {
            let sum: u64 = back
                .metrics
                .counters
                .iter()
                .filter(|(k, _)| k.ends_with(&format!(".{field}")))
                .map(|(_, v)| *v)
                .sum();
            assert_eq!(sum, value as u64, "{field}");
        }
        // And the rendered table shows the same per-stage numbers.
        let table = report.render_table();
        for r in report.stages() {
            assert!(table.contains(r.stage.name()));
        }
        assert!(table.contains(" 80 "), "utility_evals column:\n{table}");
    }

    #[test]
    fn observer_sees_stages_in_order() {
        let mut obs = CollectingObserver::default();
        let mut ctx = ExecContext::new(WorkerPool::new(1)).with_observer(&mut obs);
        ctx.record(
            Stage::CandidateGen,
            Duration::ZERO,
            StageCounters::default(),
        );
        ctx.record(Stage::TopK, Duration::ZERO, StageCounters::default());
        drop(ctx);
        assert_eq!(
            obs.reports.iter().map(|r| r.stage).collect::<Vec<_>>(),
            vec![Stage::CandidateGen, Stage::TopK]
        );
    }
}
