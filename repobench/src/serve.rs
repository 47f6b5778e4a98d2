//! The serving path: deploying fitted models (`save_model` →
//! `ModelRegistry::load_dir`) and a closed request loop with one caller.
//!
//! The caller submits requests one at a time; the server flushes a batch
//! inline when `max_batch` are queued, and the caller waits for that reply
//! before sending more. When the caller stops mid-batch it drains the
//! queue with an explicit `flush`. Every response is checked against
//! `classify_now` outside the timed batch: `classify_now` is a pure
//! function of the model and the window, so it runs once per distinct
//! `(dataset, instance)` pair and is then compared with every response
//! for that pair.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ips_core::{ChunkSize, IpsClassifier};
use ips_distance::CacheStats;
use ips_serve::{
    save_model, ClassifyRequest, ClassifyResponse, IpsServer, ModelRegistry, ServableModel,
    ServeConfig,
};
use ips_tsdata::Dataset;

use crate::report::Checks;
use crate::stats::SliceRates;
use crate::trace::Tracer;
use crate::workload::MAX_BATCH;

/// Span budget of one traced run: later batches go untraced, so the
/// in-memory trace stays bounded however fast the server is.
pub const SPAN_CAP: usize = 100_000;

/// Batches a serving window keeps the requests of, at most. A window that
/// answers more keeps a uniform sample of them (see [`ServeLog`]), so the
/// sample buffer is small and its size does not depend on how fast the
/// server is.
pub const BATCH_SAMPLES: usize = 2048;

/// Busy time per throughput sample, in seconds.
pub const RATE_SLICE_S: f64 = 0.25;

/// Saves every model into a fresh directory under `out_dir`, loads them
/// back as a registry, and removes the directory. Returns the registry and
/// the `load_dir` time.
pub fn deploy(
    models: &[(String, &IpsClassifier)],
    out_dir: &Path,
    tracer: &mut Tracer,
) -> Result<(ModelRegistry, f64), String> {
    static DEPLOYS: AtomicUsize = AtomicUsize::new(0);
    let n = DEPLOYS.fetch_add(1, Ordering::Relaxed);
    let dir = &out_dir.join(format!("models-{}-{n}", std::process::id()));
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    tracer.span("serve.save", || {
        models.iter().try_for_each(|(name, model)| {
            let servable =
                ServableModel::from_classifier(name.clone(), model).map_err(|e| e.to_string())?;
            save_model(&servable, dir.join(format!("{name}.json"))).map_err(|e| e.to_string())
        })
    })?;
    let t = Instant::now();
    let registry = tracer.span("serve.load_dir", || ModelRegistry::load_dir(dir));
    let load_dir_s = t.elapsed().as_secs_f64();
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok((registry.map_err(|e| e.to_string())?, load_dir_s))
}

/// A server with the benchmark's serving knobs.
pub fn server(registry: ModelRegistry, threads: usize) -> Result<IpsServer, String> {
    IpsServer::new(
        registry,
        ServeConfig {
            num_threads: threads,
            max_batch: MAX_BATCH,
            chunk_size: ChunkSize::Auto,
        },
    )
    .map_err(|e| e.to_string())
}

/// The test sets a loop draws windows from, by model name.
pub struct Targets<'a> {
    /// `(model name, test set)` per dataset.
    sets: Vec<(String, &'a Dataset)>,
    expected: HashMap<(usize, usize), u32>,
}

impl<'a> Targets<'a> {
    /// Targets over `(model name, test set)` pairs.
    pub fn new(sets: Vec<(String, &'a Dataset)>) -> Self {
        Self {
            sets,
            expected: HashMap::new(),
        }
    }

    fn request(&self, id: u64, (d, i): (usize, usize)) -> ClassifyRequest {
        ClassifyRequest {
            id,
            model: self.sets[d].0.clone(),
            window: self.sets[d].1.series(i).values().to_vec(),
        }
    }

    /// Checks one response against `classify_now` for its pair.
    fn verify(
        &mut self,
        server: &IpsServer,
        pair: (usize, usize),
        id: u64,
        response: &ClassifyResponse,
        checks: &mut Checks,
    ) {
        let label = match self.expected.get(&pair) {
            Some(&label) => label,
            None => match server.classify_now(&self.request(id, pair)) {
                Ok(single) => *self.expected.entry(pair).or_insert(single.label),
                Err(e) => {
                    checks.fail(format!("classify_now on request {id}: {e}"));
                    return;
                }
            },
        };
        let ok =
            response.id == id && response.model == self.sets[pair.0].0 && response.label == label;
        checks.check(ok, || {
            format!("response {response:?} differs from classify_now (id {id}, label {label})")
        });
    }

    /// The true label of a pair.
    pub fn truth(&self, (d, i): (usize, usize)) -> u32 {
        self.sets[d].1.label(i)
    }
}

/// An empty vector whose `cap` slots are already allocated and written
/// once, so filling it up to `cap` neither reallocates nor grows the
/// process's resident memory. `fill` must not be all zero bits: a zeroed
/// allocation is left untouched by the allocator.
fn preallocated<T: Clone>(cap: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; cap];
    v.clear();
    v
}

/// One answered batch.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Position in its window.
    pub index: u64,
    /// Whether its spans were recorded.
    pub traced: bool,
    /// Requests it answered.
    pub requests: usize,
    /// Wall time from its first submit to its responses, in seconds.
    pub wall_s: f64,
    /// Duration of the call that flushed it, in seconds.
    pub flush_s: f64,
    /// From the start of that call to the responses, in milliseconds.
    pub flushed_ms: f32,
    /// Per request, submit to response, in milliseconds.
    pub latency_ms: [f32; MAX_BATCH],
    /// Durations of its calls that only admitted, in seconds.
    pub admit_s: [f32; MAX_BATCH],
    /// How many of `admit_s` are set.
    pub admits: usize,
}

impl Batch {
    fn new(index: u64, traced: bool) -> Self {
        Self {
            index,
            traced,
            requests: 0,
            wall_s: f64::NAN,
            flush_s: f64::NAN,
            flushed_ms: f32::NAN,
            latency_ms: [f32::NAN; MAX_BATCH],
            admit_s: [f32::NAN; MAX_BATCH],
            admits: 0,
        }
    }

    /// Whether batch `index` is in the sample at `level`: its hash has at
    /// least `level` trailing zero bits. Hashing, rather than keeping every
    /// n-th batch, keeps traced (odd) and untraced (even) batches alike.
    fn sampled_at(index: u64, level: u32) -> bool {
        let mut state = index;
        splitmix64(&mut state).trailing_zeros() >= level
    }
}

/// What one closed loop measured.
#[derive(Debug)]
pub struct ServeLog {
    /// Requests answered.
    pub responses: usize,
    /// Responses whose label is the true label.
    pub correct: usize,
    /// Batches answered.
    pub batches: usize,
    /// Distance-cache counters of the answered batches.
    pub cache: CacheStats,
    /// Requests answered per second of batch time, over every batch.
    rates: SliceRates,
    /// A uniform sample of at most [`BATCH_SAMPLES`] batches, in order:
    /// every batch while they fit, then, each time the buffer fills, the
    /// sampling level rises by one and about half of them are dropped.
    sampled: Vec<Batch>,
    level: u32,
}

impl ServeLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self {
            responses: 0,
            correct: 0,
            batches: 0,
            cache: CacheStats::default(),
            rates: SliceRates::new(RATE_SLICE_S),
            sampled: preallocated(BATCH_SAMPLES, Batch::new(0, false)),
            level: 0,
        }
    }

    fn record(&mut self, batch: Batch) {
        self.batches += 1;
        self.rates.push(batch.requests, batch.wall_s);
        while self.sampled.len() == BATCH_SAMPLES {
            self.level += 1;
            let level = self.level;
            self.sampled.retain(|b| Batch::sampled_at(b.index, level));
        }
        if Batch::sampled_at(batch.index, self.level) {
            self.sampled.push(batch);
        }
    }

    /// The sampled batches, in order.
    pub fn sampled(&self) -> &[Batch] {
        &self.sampled
    }

    /// Requests answered per second of batch wall time: percentile `q`
    /// over slices of [`RATE_SLICE_S`], with the slice count.
    pub fn rps(&self, q: f64) -> (f64, usize) {
        self.rates.percentile(q)
    }

    /// Mean requests per batch.
    pub fn mean_batch(&self) -> f64 {
        self.responses as f64 / self.batches.max(1) as f64
    }

    /// Submit-to-response times of the sampled requests, in milliseconds.
    pub fn latency_ms(&self) -> Vec<f64> {
        self.per_request(|b, k| b.latency_ms[k])
    }

    /// Submit-to-flush-start times of the sampled requests, in milliseconds.
    pub fn queue_wait_ms(&self) -> Vec<f64> {
        self.per_request(|b, k| b.latency_ms[k] - b.flushed_ms)
    }

    /// Durations of the sampled admitting submit calls, in seconds.
    pub fn admit_s(&self) -> Vec<f64> {
        self.sampled
            .iter()
            .flat_map(|b| &b.admit_s[..b.admits])
            .map(|&s| f64::from(s))
            .collect()
    }

    /// Durations of the sampled flushing calls, in seconds.
    pub fn flush_s(&self) -> Vec<f64> {
        self.sampled.iter().map(|b| b.flush_s).collect()
    }

    fn per_request(&self, value: impl Fn(&Batch, usize) -> f32) -> Vec<f64> {
        self.sampled
            .iter()
            .flat_map(|b| (0..b.requests).map(move |k| (b, k)))
            .map(|(b, k)| f64::from(value(b, k)))
            .collect()
    }
}

/// Loop controls.
pub struct LoopSpec<'s> {
    /// Next `(dataset, instance)` pair to request.
    pub next: &'s mut dyn FnMut() -> (usize, usize),
    /// Keep sending while this holds (checked after every submit).
    pub keep_going: &'s dyn Fn(&ServeLog) -> bool,
    /// Replace one response label, to prove the checks catch it.
    pub inject_wrong: bool,
}

/// Runs the closed loop until `keep_going` fails, verifying every response
/// outside the batch timing, and adds what it measured to `log`; a loop
/// run in several slices thus fills one log. When the tracer is on, every
/// other batch is traced and the rest measure the untraced cost.
pub fn closed_loop(
    server: &mut IpsServer,
    targets: &mut Targets,
    spec: LoopSpec,
    log: &mut ServeLog,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let trace_wanted = tracer.enabled();
    let cache_before = server.cache_stats();
    let mut inject_wrong = spec.inject_wrong;
    let mut id = log.responses as u64;
    let mut pairs = Vec::with_capacity(MAX_BATCH);
    let mut submitted = Vec::with_capacity(MAX_BATCH);
    let mut stop = false;
    while !stop {
        let index = log.batches as u64;
        let traced = trace_wanted && tracer.spans().len() < SPAN_CAP && index % 2 == 1;
        let mut batch = Batch::new(index, traced);
        tracer.set_enabled(traced);
        pairs.clear();
        submitted.clear();
        let first_id = id;
        tracer.enter("batch", None);
        let t_batch = Instant::now();
        let mut flush_start = t_batch;
        let responses = loop {
            let pair = (spec.next)();
            let request = targets.request(id, pair);
            let flushes = server.pending() + 1 >= server.config().max_batch;
            let t = Instant::now();
            tracer.enter(
                if flushes {
                    "serve.flush"
                } else {
                    "serve.submit"
                },
                Some(id),
            );
            let result = server.submit(request);
            tracer.exit();
            let took = t.elapsed().as_secs_f64();
            submitted.push(t);
            pairs.push(pair);
            id += 1;
            match result {
                Ok(Some(responses)) => {
                    flush_start = t;
                    batch.flush_s = took;
                    break Ok(responses);
                }
                Ok(None) => {
                    batch.admit_s[batch.admits] = took as f32;
                    batch.admits += 1;
                }
                Err(e) => break Err(e.to_string()),
            }
            if !(spec.keep_going)(log) {
                stop = true;
                let t = Instant::now();
                tracer.enter("serve.flush", Some(id - 1));
                let result = server.flush();
                tracer.exit();
                flush_start = t;
                batch.flush_s = t.elapsed().as_secs_f64();
                break result.map_err(|e| e.to_string());
            }
        };
        let done = Instant::now();
        tracer.exit();
        batch.requests = pairs.len();
        batch.wall_s = (done - t_batch).as_secs_f64();
        batch.flushed_ms = ((done - flush_start).as_secs_f64() * 1e3) as f32;
        tracer.set_enabled(trace_wanted);

        // Outside the batch timing: account and verify.
        checks.attempt(pairs.len());
        let mut responses = match responses {
            Ok(r) => r,
            Err(e) => {
                for _ in &pairs {
                    checks.fail(format!("batch from request {first_id}: {e}"));
                }
                break;
            }
        };
        if inject_wrong {
            if let Some(r) = responses.first_mut() {
                r.label = r.label.wrapping_add(1);
                inject_wrong = false;
            }
        }
        if responses.len() > pairs.len() {
            checks.fail(format!(
                "batch from request {first_id}: {} responses for {} requests",
                responses.len(),
                pairs.len()
            ));
        }
        for (k, (&pair, &t_submit)) in pairs.iter().zip(&submitted).enumerate() {
            let Some(response) = responses.get(k) else {
                checks.fail(format!("request {} got no response", first_id + k as u64));
                continue;
            };
            targets.verify(server, pair, first_id + k as u64, response, checks);
            if response.label == targets.truth(pair) {
                log.correct += 1;
            }
            batch.latency_ms[k] = ((done - t_submit).as_secs_f64() * 1e3) as f32;
            log.responses += 1;
        }
        log.record(batch);
    }
    let after = server.cache_stats();
    log.cache.merge(&CacheStats {
        kernel_evals: after.kernel_evals - cache_before.kernel_evals,
        cache_hits: after.cache_hits - cache_before.cache_hits,
        kernel_fallbacks: after.kernel_fallbacks - cache_before.kernel_fallbacks,
    });
}

/// Fisher–Yates shuffle driven by a splitmix64 stream.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A seeded cyclic order over `pairs`: each cycle is a fresh shuffle.
pub fn shuffled_cycle(pairs: Vec<(usize, usize)>, seed: u64) -> impl FnMut() -> (usize, usize) {
    let mut state = seed ^ 0x5EED_0F5E_12F3_C105;
    let mut order = pairs;
    let mut pos = order.len();
    move || {
        if pos == order.len() {
            shuffle(&mut order, &mut state);
            pos = 0;
        }
        pos += 1;
        order[pos - 1]
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_cycle_visits_every_pair_once_per_cycle_and_depends_on_seed() {
        let pairs: Vec<_> = (0..50).map(|i| (i % 3, i)).collect();
        let mut a = shuffled_cycle(pairs.clone(), 1);
        let mut first: Vec<_> = (0..50).map(|_| a()).collect();
        let mut again = shuffled_cycle(pairs.clone(), 1);
        assert_eq!(first, (0..50).map(|_| again()).collect::<Vec<_>>());
        let mut b = shuffled_cycle(pairs.clone(), 2);
        assert_ne!(first, (0..50).map(|_| b()).collect::<Vec<_>>());
        first.sort();
        let mut sorted = pairs;
        sorted.sort();
        assert_eq!(first, sorted);
    }

    #[test]
    fn batch_sample_stays_bounded_uniform_and_keeps_both_parities() {
        let mut log = ServeLog::new();
        let n = 10 * BATCH_SAMPLES as u64;
        for index in 0..n {
            let mut batch = Batch::new(index, index % 2 == 1);
            batch.requests = 1;
            batch.wall_s = 0.125;
            log.record(batch);
        }
        let kept = log.sampled();
        assert_eq!(log.batches, n as usize);
        assert!(kept.len() <= BATCH_SAMPLES && kept.len() > BATCH_SAMPLES / 4);
        assert!(kept.windows(2).all(|w| w[0].index < w[1].index));
        let traced = kept.iter().filter(|b| b.traced).count();
        assert!(traced > kept.len() / 3 && traced < 2 * kept.len() / 3);
        let early = kept.iter().filter(|b| b.index < n / 2).count();
        assert!(early > kept.len() / 3 && early < 2 * kept.len() / 3);
        // Every batch still counts toward the throughput.
        assert_eq!(log.rps(10.0), (8.0, (n / 2) as usize));
    }
}
