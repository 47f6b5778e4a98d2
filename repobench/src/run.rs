//! One benchmark run: set-up, the measured window, the correctness checks,
//! and the metrics.
//!
//! The window of a fit workload interleaves passes that fit every dataset
//! with slices of serving the first pass's models, deployed; the window
//! of `serve-closed` is all serving. Untraced (`--trace 0`) runs report
//! the end-to-end metrics. Traced runs alternate untraced and traced units
//! (fit passes, request batches) and report the per-layer metrics from the
//! spans.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ips_core::IpsClassifier;
use ips_tsdata::Dataset;

use crate::profile;
use crate::report::{Checks, Metric, Outcome};
use crate::serve::{self, closed_loop, shuffled_cycle, LoopSpec, ServeLog, Targets};
use crate::stats::{
    highest_supported_percentile, median, percentile, samples_beyond, samples_for, Ratio,
    TAIL_SUPPORT,
};
use crate::trace::Tracer;
use crate::workload::{fit_composed, fit_reference, FitCounts, Kind, Plan};

/// Set-up repetitions of `serve-closed` (synthesis, fit, save, load_dir):
/// one before the window, the rest spread over it.
pub const SERVE_SETUP_REPS: usize = 8;

/// Fit passes a window always completes.
pub const MIN_PASSES: usize = 3;

/// Share of a fit workload's window spent fitting: every pass after the
/// first is preceded by a serving slice of `1 / FIT_SHARE - 1` times the
/// previous pass's time. Fit passes are the scarcer samples, so they get
/// the larger share.
pub const FIT_SHARE: f64 = 2.0 / 3.0;

/// Untimed serving before every measured serving window, so first-batch
/// costs (cold caches, first thread spawns) stay out of the tail.
pub const WARMUP_S: f64 = 0.5;

/// Percentile of the bounded timings; rates use its complement. The
/// machine runs at two speeds, the slower about 1.3 to 2 times the faster
/// on these workloads, and how much of a run falls in each varies from run
/// to run, so means and medians move with that share. The slower speed is
/// the more common one: nearly every run spends a tenth of its set-ups,
/// passes and batches at it, and the p90 reads it steadily (see the
/// README).
pub const SLOW_PCT: f64 = 90.0;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "fit_p90_s",
    "serve_rps",
    "serve_p90_ms",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [&str; 29] = [
    "tsdata.load_s",
    "profile.compute_s",
    "profile.cells",
    "profile.ns_per_cell",
    "core.candidate_gen_s",
    "core.candidates_out",
    "core.prune_s",
    "core.dabf_probes",
    "core.prune_ratio",
    "core.select_s",
    "core.utility_evals",
    "classify.transform_s",
    "classify.svm_fit_s",
    "distance.kernel_evals",
    "distance.cache_hits",
    "distance.hit_ratio",
    "distance.kernel_fallbacks",
    "classify.predict_s",
    "classify.test_accuracy",
    "serve.load_dir_s",
    "serve.submit_s",
    "serve.flush_s",
    "serve.flush_tail_s",
    "serve.flush_tail_pct",
    "serve.queue_wait_ms",
    "serve.batches",
    "serve.batch_size",
    "trace.overhead_s",
    "trace.unattributed_s",
];

/// Knobs of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of the measured window.
    pub seconds: f64,
    /// `--trace 1`.
    pub trace: bool,
    /// Flip one prediction, to prove the checks fail the run.
    pub inject_wrong_prediction: bool,
    /// Directory for the trace file and the saved models.
    pub out_dir: PathBuf,
}

/// One dataset of a workload.
struct Data {
    name: String,
    train: Dataset,
    test: Dataset,
}

fn load_all(plan: &Plan, tracer: &mut Tracer) -> Result<Vec<Data>, String> {
    plan.datasets
        .iter()
        .map(|src| {
            let (train, test) = tracer.span("tsdata.load", || src.load())?;
            Ok(Data {
                name: src.name(),
                train,
                test,
            })
        })
        .collect()
}

/// Every `(dataset, test instance)` pair, in dataset then instance order.
fn all_pairs(data: &[Data]) -> Vec<(usize, usize)> {
    data.iter()
        .enumerate()
        .flat_map(|(d, data)| (0..data.test.len()).map(move |i| (d, i)))
        .collect()
}

fn make_targets(data: &[Data]) -> Targets<'_> {
    Targets::new(data.iter().map(|d| (d.name.clone(), &d.test)).collect())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// FNV-1a over every prediction of a pass.
fn digest(preds: &[Vec<u32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for labels in preds {
        for y in labels.iter().chain([&u32::MAX]) {
            for b in y.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Runs one workload.
pub fn run(plan: &Plan, opts: &Options) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(opts.trace);
    let mut checks = Checks::default();
    let mut notes = vec![format!(
        "workload {} seed {} threads {} (nproc {}) window {} s",
        plan.name,
        opts.seed,
        plan.config.num_threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        opts.seconds
    )];
    let mut metrics = match plan.kind {
        Kind::Fit => run_fit(plan, opts, &mut tracer, &mut checks, &mut notes)?,
        Kind::Serve => run_serve(plan, opts, &mut tracer, &mut checks, &mut notes)?,
    };
    if opts.trace {
        let path = opts
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", plan.name, opts.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ));
    } else {
        metrics.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb()?,
            "MB",
            "VmHWM of the process",
        ));
    }
    Ok(Outcome {
        checks,
        metrics,
        notes,
    })
}

/// The process's resident-memory high-water mark, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The result of one untraced fit pass.
struct Pass {
    models: Vec<IpsClassifier>,
    preds: Vec<Vec<u32>>,
    fit_s: f64,
}

/// Fits every dataset with `IpsClassifier::fit` (timed) and predicts its
/// test set with `IpsClassifier::predict_all` (untimed, for the checks).
fn fit_pass(data: &[Data], plan: &Plan, checks: &mut Checks) -> Option<Pass> {
    let mut pass = Pass {
        models: Vec::new(),
        preds: Vec::new(),
        fit_s: 0.0,
    };
    for d in data {
        checks.attempt(1);
        let t = Instant::now();
        match fit_reference(&d.train, &plan.config) {
            Ok(model) => pass.models.push(model),
            Err(e) => {
                checks.fail(format!("fit {}: {e}", d.name));
                return None;
            }
        }
        pass.fit_s += secs(t.elapsed());
    }
    pass.preds = data
        .iter()
        .zip(&pass.models)
        .map(|(d, m)| m.predict_all(&d.test))
        .collect();
    Some(pass)
}

/// Composes every fit stage by stage and checks its predictions against
/// the reference's. Returns the counters and the traced fit total.
fn composed_pass(
    data: &[Data],
    plan: &Plan,
    reference_preds: &[Vec<u32>],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (FitCounts, f64) {
    let mut counts = FitCounts::default();
    let mut fit_total = 0.0;
    for (i, d) in data.iter().enumerate() {
        checks.attempt(1);
        let t = Instant::now();
        tracer.enter("fit", Some(i as u64));
        let composed = fit_composed(&d.train, &plan.config, tracer);
        tracer.exit();
        fit_total += secs(t.elapsed());
        match composed {
            Ok((model, c)) => {
                counts.merge(c);
                let preds = model.predict_all(&d.test);
                checks.check(preds == reference_preds[i], || {
                    format!("{}: stage-by-stage composition predicts differently from IpsClassifier::fit", d.name)
                });
            }
            Err(e) => checks.fail(format!("composed fit {}: {e}", d.name)),
        }
    }
    (counts, fit_total)
}

/// The serving loop every workload shares: one caller in a closed loop
/// over the test sets, each cycle in a fresh seeded order, run in slices
/// that all add to one log.
struct Serving<'a> {
    targets: Targets<'a>,
    next: Box<dyn FnMut() -> (usize, usize) + 'a>,
    log: ServeLog,
}

impl<'a> Serving<'a> {
    /// Serves for an untimed, untraced [`WARMUP_S`] first, so first-batch
    /// costs (cold caches, first allocations) stay out of the log.
    fn warmed_up(
        server: &mut ips_serve::IpsServer,
        data: &'a [Data],
        seed: u64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Self {
        let mut serving = Self {
            targets: make_targets(data),
            next: Box::new(shuffled_cycle(all_pairs(data), seed)),
            log: ServeLog::new(),
        };
        let traced = tracer.enabled();
        tracer.set_enabled(false);
        serving.serve(server, WARMUP_S, 1, false, tracer, checks);
        tracer.set_enabled(traced);
        serving.log = ServeLog::new();
        serving
    }

    /// Serves for `seconds` and until the log holds `min_batches`.
    fn serve(
        &mut self,
        server: &mut ips_serve::IpsServer,
        seconds: f64,
        min_batches: usize,
        inject_wrong: bool,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) {
        let window = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let keep_going = |log: &ServeLog| log.batches < min_batches || start.elapsed() < window;
        let spec = LoopSpec {
            next: &mut *self.next,
            keep_going: &keep_going,
            inject_wrong,
        };
        closed_loop(server, &mut self.targets, spec, &mut self.log, tracer, checks);
    }
}

/// `serve_rps` and `serve_p90_ms` of a serving window: the rate of the
/// slowest tenth of the window and the latency tail, both of which read
/// the machine's slower speed (see [`SLOW_PCT`]). The median latency and,
/// when ten sampled batches lie beyond it, the p99 are noted beside them,
/// unbounded.
fn serve_metrics(log: &ServeLog, notes: &mut Vec<String>) -> Vec<Metric> {
    let n = log.responses;
    let lat = &log.latency_ms();
    let sample = format!(
        "{} requests of {} sampled batches; {n} requests in {} batches",
        lat.len(),
        log.sampled().len(),
        log.batches
    );
    let p50 = Metric::new(
        "serve_p50_ms",
        percentile(lat, 50.0),
        "ms",
        format!("median of {sample}, submit to response"),
    );
    notes.push(format!("{} (not bounded; see README)", p50.line()));
    if samples_beyond(log.sampled().len(), 99.0) >= TAIL_SUPPORT {
        let p99 = Metric::new(
            "serve_p99_ms",
            percentile(lat, 99.0),
            "ms",
            format!("p99 of {sample}"),
        );
        notes.push(format!("{} (not bounded; see README)", p99.line()));
    }
    let (rps, slices) = log.rps(100.0 - SLOW_PCT);
    vec![
        Metric::new(
            "serve_rps",
            rps,
            "1/s",
            format!(
                "p{} of {slices} slices of batch time; {n} requests in {} batches",
                100.0 - SLOW_PCT,
                log.batches
            ),
        ),
        Metric::new(
            "serve_p90_ms",
            percentile(lat, SLOW_PCT),
            "ms",
            format!("p{SLOW_PCT} of {sample}, submit to response"),
        ),
    ]
}

fn list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn accuracy(preds: &[u32], test: &Dataset) -> f64 {
    ips_classify::accuracy(preds, test.labels())
}

fn run_fit(
    plan: &Plan,
    opts: &Options,
    tracer: &mut Tracer,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let mut setup_s = Vec::new();
    let mut setup = |tracer: &mut Tracer| -> Result<Vec<Data>, String> {
        tracer.enter("setup", None);
        let t = Instant::now();
        let data = load_all(plan, tracer);
        setup_s.push(secs(t.elapsed()));
        tracer.exit();
        data
    };
    let data = setup(tracer)?;

    // The window: fit passes, each after the first preceded by a serving
    // slice and a set-up, so passes, batches and set-ups alike are spread
    // over the whole window rather than each confined to one part of it.
    let mut fit_s = Vec::new();
    let mut traced_fit_s = Vec::new();
    let mut counts = FitCounts::default();
    let mut first: Option<(u64, Vec<Vec<u32>>)> = None;
    let mut last: Option<Pass> = None;
    let mut deployed: Option<(ips_serve::IpsServer, Serving)> = None;
    let mut load_dir_s = f64::NAN;
    let start = Instant::now();
    while fit_s.len() < MIN_PASSES || secs(start.elapsed()) < opts.seconds {
        if let (Some((server, serving)), Some(prev)) = (&mut deployed, &last) {
            let slice = prev.fit_s * (1.0 / FIT_SHARE - 1.0);
            serving.serve(server, slice, 0, false, tracer, checks);
            setup(tracer)?;
        }
        let Some(mut pass) = fit_pass(&data, plan, checks) else {
            break;
        };
        if opts.inject_wrong_prediction && fit_s.len() == 1 {
            pass.preds[0][0] = pass.preds[0][0].wrapping_add(1);
        }
        fit_s.push(pass.fit_s);
        let d = digest(&pass.preds);
        match &first {
            None => first = Some((d, pass.preds.clone())),
            Some((d0, _)) => checks.check(d == *d0, || {
                format!(
                    "pass {}: prediction digest {d:#x} differs from the first pass's {d0:#x}",
                    fit_s.len()
                )
            }),
        }
        if opts.trace {
            tracer.enter("pass", None);
            let (c, total) = composed_pass(&data, plan, &pass.preds, tracer, checks);
            for (d, model) in data.iter().zip(&pass.models) {
                tracer.span("classify.predict", || model.predict_all(&d.test));
            }
            tracer.exit();
            counts = c;
            traced_fit_s.push(total);
        }
        if deployed.is_none() {
            // The first pass's models, saved, reloaded and served from here on.
            let named: Vec<(String, &IpsClassifier)> = data
                .iter()
                .map(|d| d.name.clone())
                .zip(&pass.models)
                .collect();
            let (registry, load_dir) = serve::deploy(&named, &opts.out_dir, tracer)?;
            load_dir_s = load_dir;
            let mut server = serve::server(registry, plan.config.num_threads)?;
            let serving = Serving::warmed_up(&mut server, &data, opts.seed, tracer, checks);
            deployed = Some((server, serving));
        }
        last = Some(pass);
    }
    let (Some(last), Some((_, first_preds)), Some((mut server, mut serving))) =
        (last, first, deployed)
    else {
        return Ok(Vec::new());
    };
    // Enough batches for the p90 however short the window.
    serving.serve(&mut server, 0.0, samples_for(90.0), false, tracer, checks);
    let log = serving.log;

    let setups = setup_s.len();
    if !opts.trace {
        // The composition check, once, outside the window.
        composed_pass(&data, plan, &last.preds, tracer, checks);
    }

    let passes = fit_s.len();
    let acc: f64 = data
        .iter()
        .zip(&first_preds)
        .map(|(d, p)| accuracy(p, &d.test))
        .sum::<f64>()
        / data.len() as f64;
    let accuracy = Metric::new(
        "classify.test_accuracy",
        acc,
        "ratio",
        format!("mean over {} datasets", data.len()),
    );
    if !opts.trace {
        notes.push(format!("fit passes (s): {}", list(&fit_s)));
        notes.push(format!(
            "fit_p50_s {:.6} s, median of {passes} passes (not bounded; see README)",
            median(&fit_s)
        ));
        notes.push(format!("{} (not bounded; see README)", accuracy.line()));
        let mut out = vec![
            Metric::new(
                "setup_s",
                percentile(&setup_s, SLOW_PCT),
                "s",
                format!("p{SLOW_PCT} of {setups} set-ups (dataset synthesis)"),
            ),
            Metric::new(
                "fit_p90_s",
                percentile(&fit_s, SLOW_PCT),
                "s",
                format!("p{SLOW_PCT} of {passes} passes fitting every dataset"),
            ),
        ];
        out.extend(serve_metrics(&log, notes));
        return Ok(out);
    }

    let by_name = tracer.self_seconds_by_name();
    let per_pass = |name: &str| by_name.get(name).copied().unwrap_or(0.0) / passes as f64;
    let stage_names = [
        "core.generate",
        "core.prune",
        "core.select",
        "classify.transform",
        "classify.svm_fit",
    ];
    let stages: f64 = stage_names.iter().map(|n| per_pass(n)).sum();
    let unattributed = per_pass("fit");
    notes.push(format!(
        "accounting per traced pass: fit total {:.6} s = stages {:.6} s + unattributed {:.6} s",
        tracer.durations("fit").iter().sum::<f64>() / passes as f64,
        stages,
        unattributed
    ));
    let trains: Vec<&Dataset> = data.iter().map(|d| &d.train).collect();
    let mut out = vec![Metric::new(
        "tsdata.load_s",
        by_name.get("tsdata.load").copied().unwrap_or(0.0) / setups as f64,
        "s",
        format!("per set-up, mean of {setups}"),
    )];
    out.extend(profile_metrics(&trains, plan));
    out.extend(fit_layer_metrics(
        &per_pass,
        counts,
        "per traced fit pass",
        passes,
    ));
    out.extend(distance_metrics(
        counts.cache,
        1.0,
        "per fit pass, selection and training transform",
    ));
    out.push(Metric::new(
        "classify.predict_s",
        per_pass("classify.predict"),
        "s",
        format!("IpsClassifier::predict_all per pass, mean of {passes}"),
    ));
    out.push(accuracy);
    out.extend(serve_layer_metrics(&log, &[load_dir_s], "serving slices"));
    out.push(Metric::new(
        "trace.overhead_s",
        median(&traced_fit_s) - median(&fit_s),
        "s",
        format!("median traced minus median untraced fit pass, {passes} of each"),
    ));
    out.push(Metric::new(
        "trace.unattributed_s",
        unattributed,
        "s",
        "fit span minus its stage spans, per pass",
    ));
    Ok(out)
}

fn profile_metrics(trains: &[&Dataset], plan: &Plan) -> Vec<Metric> {
    let p = profile::run(trains, &plan.config, 3, 1.0);
    vec![
        Metric::new(
            "profile.compute_s",
            p.sweep_s,
            "s",
            format!("median of {} sweeps of InstanceProfile::compute", p.sweeps),
        ),
        Metric::new(
            "profile.cells",
            p.cells as f64,
            "count",
            "computed from geometry, per sweep",
        ),
        Metric::new(
            "profile.ns_per_cell",
            p.sweep_s * 1e9 / p.cells as f64,
            "ns",
            "sweep time over computed cells",
        ),
    ]
}

fn fit_layer_metrics(
    per_unit: &dyn Fn(&str) -> f64,
    counts: FitCounts,
    unit: &str,
    n: usize,
) -> Vec<Metric> {
    let basis = |what: &str| format!("{what} {unit}, mean of {n}");
    vec![
        Metric::new(
            "core.candidate_gen_s",
            per_unit("core.generate"),
            "s",
            basis("ProfileCandidateSource::generate"),
        ),
        Metric::new(
            "core.candidates_out",
            counts.candidates_out as f64,
            "count",
            unit.to_string(),
        ),
        Metric::new(
            "core.prune_s",
            per_unit("core.prune"),
            "s",
            basis("DabfPruner::prune"),
        ),
        Metric::new(
            "core.dabf_probes",
            counts.dabf_probes as f64,
            "count",
            unit.to_string(),
        ),
        Metric::new(
            "core.prune_ratio",
            counts.pruned.value(),
            "ratio",
            format!(
                "{} pruned of {} candidates in",
                counts.pruned.part, counts.pruned.base
            ),
        ),
        Metric::new(
            "core.select_s",
            per_unit("core.select"),
            "s",
            basis("UtilitySelector::select"),
        ),
        Metric::new(
            "core.utility_evals",
            counts.utility_evals as f64,
            "count",
            unit.to_string(),
        ),
        Metric::new(
            "classify.transform_s",
            per_unit("classify.transform"),
            "s",
            basis("transform_with_cache"),
        ),
        Metric::new(
            "classify.svm_fit_s",
            per_unit("classify.svm_fit"),
            "s",
            basis("LinearSvm::fit"),
        ),
    ]
}

/// The distance counters of `cache`, each divided by `units`, the number
/// of passes or requests `basis` names.
fn distance_metrics(cache: ips_distance::CacheStats, units: f64, basis: &str) -> Vec<Metric> {
    let hits = Ratio::hits(cache.cache_hits, cache.kernel_evals);
    vec![
        Metric::new(
            "distance.kernel_evals",
            cache.kernel_evals as f64 / units,
            "count",
            basis.to_string(),
        ),
        Metric::new(
            "distance.cache_hits",
            cache.cache_hits as f64 / units,
            "count",
            basis.to_string(),
        ),
        Metric::new(
            "distance.hit_ratio",
            hits.value(),
            "ratio",
            format!("{} hits of {} requests", hits.part, hits.base),
        ),
        Metric::new(
            "distance.kernel_fallbacks",
            cache.kernel_fallbacks as f64 / units,
            "count",
            basis.to_string(),
        ),
    ]
}

fn serve_layer_metrics(log: &ServeLog, load_dir_s: &[f64], what: &str) -> Vec<Metric> {
    let flush = &log.flush_s();
    let admit = &log.admit_s();
    let queue_wait = &log.queue_wait_ms();
    let (tail_pct, tail_s) = match highest_supported_percentile(flush.len()) {
        Some(q) => (q, percentile(flush, q)),
        None => (100.0, percentile(flush, 100.0)),
    };
    vec![
        Metric::new(
            "serve.load_dir_s",
            median(load_dir_s),
            "s",
            format!("ModelRegistry::load_dir, median of {}", load_dir_s.len()),
        ),
        Metric::new(
            "serve.submit_s",
            median(admit),
            "s",
            format!(
                "admitting submit calls, median of {} in sampled batches ({what})",
                admit.len()
            ),
        ),
        Metric::new(
            "serve.flush_s",
            median(flush),
            "s",
            format!(
                "flushing calls, median of {} sampled batches ({what})",
                flush.len()
            ),
        ),
        Metric::new(
            "serve.flush_tail_s",
            tail_s,
            "s",
            format!(
                "p{tail_pct} of {} sampled batches, {} beyond",
                flush.len(),
                samples_beyond(flush.len(), tail_pct)
            ),
        ),
        Metric::new(
            "serve.flush_tail_pct",
            tail_pct,
            "%",
            "highest percentile with ten batches beyond it",
        ),
        Metric::new(
            "serve.queue_wait_ms",
            median(queue_wait),
            "ms",
            format!(
                "submit to flush start, median of {} sampled requests",
                queue_wait.len()
            ),
        ),
        Metric::new(
            "serve.batches",
            log.batches as f64,
            "count",
            what.to_string(),
        ),
        Metric::new(
            "serve.batch_size",
            log.mean_batch(),
            "count",
            "mean requests per batch",
        ),
    ]
}

/// What the `serve-closed` set-ups measured.
#[derive(Default)]
struct ServeSetups {
    setup_s: Vec<f64>,
    fit_s: Vec<f64>,
    load_dir_s: Vec<f64>,
    counts: FitCounts,
}

/// One timed set-up of `serve-closed`: synthesis, `IpsClassifier::fit`,
/// reference predictions, `save_model` and `load_dir`. With `check`, the
/// stage-by-stage composition is checked against the fits afterwards,
/// outside the timing.
fn serve_setup(
    plan: &Plan,
    opts: &Options,
    tracer: &mut Tracer,
    checks: &mut Checks,
    setups: &mut ServeSetups,
    check: bool,
) -> Result<(ips_serve::ModelRegistry, Vec<Data>), String> {
    tracer.enter("setup", None);
    let t = Instant::now();
    let data = load_all(plan, tracer)?;
    let mut models = Vec::new();
    let mut fit = 0.0;
    for d in &data {
        checks.attempt(1);
        let t = Instant::now();
        let model =
            fit_reference(&d.train, &plan.config).map_err(|e| format!("fit {}: {e}", d.name))?;
        fit += secs(t.elapsed());
        models.push(model);
    }
    let preds: Vec<Vec<u32>> = data
        .iter()
        .zip(&models)
        .map(|(d, m)| tracer.span("classify.predict", || m.predict_all(&d.test)))
        .collect();
    let named: Vec<(String, &IpsClassifier)> =
        data.iter().map(|d| d.name.clone()).zip(&models).collect();
    let (registry, load_dir) = serve::deploy(&named, &opts.out_dir, tracer)?;
    setups.setup_s.push(secs(t.elapsed()));
    setups.fit_s.push(fit);
    setups.load_dir_s.push(load_dir);
    if check {
        setups.counts = composed_pass(&data, plan, &preds, tracer, checks).0;
    }
    tracer.exit();
    Ok((registry, data))
}

fn run_serve(
    plan: &Plan,
    opts: &Options,
    tracer: &mut Tracer,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    // The first set-up's models are served; the later set-ups are spread
    // over the window, one after each of `SERVE_SETUP_REPS - 1` equal
    // serving slices. The composition check runs after the last set-up,
    // and in a traced run after the first as well.
    let mut setups = ServeSetups::default();
    let (registry, data) = serve_setup(plan, opts, tracer, checks, &mut setups, opts.trace)?;
    let mut server = serve::server(registry, plan.config.num_threads)?;
    let mut serving = Serving::warmed_up(&mut server, &data, opts.seed, tracer, checks);
    let slice = opts.seconds / (SERVE_SETUP_REPS - 1) as f64;
    for rep in 1..SERVE_SETUP_REPS {
        let inject = opts.inject_wrong_prediction && rep == 1;
        serving.serve(&mut server, slice, 0, inject, tracer, checks);
        let check = rep + 1 == SERVE_SETUP_REPS;
        serve_setup(plan, opts, tracer, checks, &mut setups, check)?;
    }
    // Enough batches for the p90 however short the window.
    serving.serve(&mut server, 0.0, samples_for(90.0), false, tracer, checks);
    let log = serving.log;
    let ServeSetups {
        setup_s,
        fit_s,
        load_dir_s,
        counts,
    } = setups;
    let n = log.responses;
    let accuracy = Metric::new(
        "classify.test_accuracy",
        log.correct as f64 / n.max(1) as f64,
        "ratio",
        format!("{} correct of {n} responses", log.correct),
    );
    if !opts.trace {
        notes.push(format!("fit passes (s): {}", list(&fit_s)));
        notes.push(format!(
            "fit_p50_s {:.6} s, median of {SERVE_SETUP_REPS} set-up passes (not bounded; see README)",
            median(&fit_s)
        ));
        notes.push(format!("{} (not bounded; see README)", accuracy.line()));
        let mut out = vec![
            Metric::new(
                "setup_s",
                percentile(&setup_s, SLOW_PCT),
                "s",
                format!(
                    "p{SLOW_PCT} of {SERVE_SETUP_REPS} set-ups (synthesis, fit, save, load_dir)"
                ),
            ),
            Metric::new(
                "fit_p90_s",
                percentile(&fit_s, SLOW_PCT),
                "s",
                format!("p{SLOW_PCT} of {SERVE_SETUP_REPS} set-up passes fitting every dataset"),
            ),
        ];
        out.extend(serve_metrics(&log, notes));
        return Ok(out);
    }

    let by_name = tracer.self_seconds_by_name();
    let per_setup =
        |name: &str| by_name.get(name).copied().unwrap_or(0.0) / SERVE_SETUP_REPS as f64;
    let composed = tracer.count("fit") / data.len();
    let per_composed = |name: &str| by_name.get(name).copied().unwrap_or(0.0) / composed as f64;
    let traced_batches: Vec<f64> = log
        .sampled()
        .iter()
        .filter(|b| b.traced)
        .map(|b| b.wall_s)
        .collect();
    let untraced_batches: Vec<f64> = log
        .sampled()
        .iter()
        .filter(|b| !b.traced)
        .map(|b| b.wall_s)
        .collect();
    let batch_total: f64 = tracer.durations("batch").iter().sum();
    let batch_self = by_name.get("batch").copied().unwrap_or(0.0);
    let n_traced = tracer.count("batch");
    notes.push(format!(
        "accounting per traced batch: {:.9} s = submit/flush {:.9} s + unattributed {:.9} s ({n_traced} batches)",
        batch_total / n_traced as f64,
        (batch_total - batch_self) / n_traced as f64,
        batch_self / n_traced as f64
    ));
    let trains: Vec<&Dataset> = data.iter().map(|d| &d.train).collect();
    let mut out = vec![Metric::new(
        "tsdata.load_s",
        per_setup("tsdata.load"),
        "s",
        format!("per set-up, mean of {SERVE_SETUP_REPS}"),
    )];
    out.extend(profile_metrics(&trains, plan));
    out.extend(fit_layer_metrics(
        &per_composed,
        counts,
        "per composed set-up fit pass",
        composed,
    ));
    out.extend(distance_metrics(
        log.cache,
        n as f64,
        &format!("per request served, mean of {n}"),
    ));
    out.push(Metric::new(
        "classify.predict_s",
        per_setup("classify.predict"),
        "s",
        format!("IpsClassifier::predict_all per set-up, mean of {SERVE_SETUP_REPS}"),
    ));
    out.push(accuracy);
    out.extend(serve_layer_metrics(&log, &load_dir_s, "served window"));
    out.push(Metric::new(
        "trace.overhead_s",
        median(&traced_batches) - median(&untraced_batches),
        "s",
        format!(
            "median traced minus untraced sampled batch, {} and {}",
            traced_batches.len(),
            untraced_batches.len()
        ),
    ));
    out.push(Metric::new(
        "trace.unattributed_s",
        batch_self / n_traced.max(1) as f64,
        "s",
        "batch span minus its submit/flush spans, per batch",
    ));
    Ok(out)
}
