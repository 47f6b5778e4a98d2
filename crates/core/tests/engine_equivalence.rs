//! The staged engine must be **bit-identical** to the monolithic
//! reference pipeline — same shapelets, same pruned counts — across every
//! ablation cell (`use_dabf` × `use_dt_cr`) and at every thread count.
//! The reference below is the pre-engine `discover()` body, expressed over
//! the same public stage functions the engine composes.

use ips_core::engine::{CollectingObserver, Stage};
use ips_core::{
    build_dabf, generate_candidates, prune_naive, prune_with_dabf, select_top_k, CandidateSampling,
    ChunkSize, DiscoveryBudget, IpsConfig, IpsDiscovery, TopKStrategy,
};
use ips_tsdata::{registry, Dataset, DatasetSpec, SynthGenerator};

/// The seed's monolithic discovery loop: generate → (DABF build + prune |
/// naive prune) → top-k. Returns `(shapelets, generated, pruned)`.
fn reference_discover(
    train: &Dataset,
    cfg: &IpsConfig,
) -> (Vec<ips_classify::Shapelet>, usize, usize) {
    let mut pool = generate_candidates(train, cfg);
    assert!(!pool.is_empty(), "reference: no candidates");
    let generated = pool.len();
    let (dabf, pruned) = if cfg.use_dabf {
        let dabf = build_dabf(&pool, cfg);
        let pruned = prune_with_dabf(&mut pool, &dabf);
        (Some(dabf), pruned)
    } else {
        (None, prune_naive(&mut pool, cfg))
    };
    let strategy = match (cfg.use_dt_cr, &dabf) {
        (true, Some(_)) => TopKStrategy::DtCr,
        _ => TopKStrategy::Exact,
    };
    let shapelets = select_top_k(&pool, train, dabf.as_ref(), cfg, strategy);
    (shapelets, generated, pruned)
}

fn synth_train() -> Dataset {
    let spec = DatasetSpec::new("EngEq", 3, 64, 15, 12).with_noise(0.2);
    SynthGenerator::new(spec).generate().unwrap().0
}

fn base_cfg() -> IpsConfig {
    IpsConfig::default()
        .with_sampling(5, 3)
        .with_k(3)
        .with_seed(42)
}

#[test]
fn engine_matches_reference_across_ablations_and_threads() {
    let train = synth_train();
    for (use_dabf, use_dt_cr) in [(true, true), (true, false), (false, false), (false, true)] {
        let mut cfg = base_cfg();
        cfg.use_dabf = use_dabf;
        cfg.use_dt_cr = use_dt_cr;
        let (ref_shapelets, ref_generated, ref_pruned) = reference_discover(&train, &cfg);
        for threads in [1, 2, 0] {
            let result = IpsDiscovery::new(cfg.clone().with_threads(threads))
                .discover(&train)
                .unwrap();
            let tag = format!("dabf={use_dabf} dtcr={use_dt_cr} threads={threads}");
            assert_eq!(result.shapelets, ref_shapelets, "shapelets diverge: {tag}");
            assert_eq!(
                result.candidates_generated, ref_generated,
                "generated: {tag}"
            );
            assert_eq!(result.candidates_pruned, ref_pruned, "pruned: {tag}");
        }
    }
}

#[test]
fn engine_matches_reference_on_registry_data() {
    let (train, _) = registry::load("ItalyPowerDemand").unwrap();
    let cfg = base_cfg();
    let (ref_shapelets, ref_generated, ref_pruned) = reference_discover(&train, &cfg);
    for threads in [1, 2, 0] {
        let result = IpsDiscovery::new(cfg.clone().with_threads(threads))
            .discover(&train)
            .unwrap();
        assert_eq!(result.shapelets, ref_shapelets, "threads={threads}");
        assert_eq!(result.candidates_generated, ref_generated);
        assert_eq!(result.candidates_pruned, ref_pruned);
    }
}

#[test]
fn report_covers_all_stages_with_sane_counters() {
    let train = synth_train();
    let result = IpsDiscovery::new(base_cfg()).discover(&train).unwrap();
    let report = &result.report;
    assert_eq!(report.stages().len(), 4);
    for stage in Stage::ALL {
        assert!(report.stage(stage).is_some(), "missing {stage:?}");
    }
    let gen = report.stage(Stage::CandidateGen).unwrap();
    assert_eq!(gen.counters.candidates_out, result.candidates_generated);
    let pruning = report.stage(Stage::Pruning).unwrap();
    assert_eq!(pruning.counters.candidates_in, result.candidates_generated);
    assert_eq!(
        pruning.counters.candidates_in - pruning.counters.candidates_out,
        result.candidates_pruned
    );
    assert!(
        pruning.counters.dabf_probes > 0,
        "DABF pruning must probe the filter"
    );
    let topk = report.stage(Stage::TopK).unwrap();
    assert_eq!(topk.counters.candidates_in, pruning.counters.candidates_out);
    assert_eq!(topk.counters.candidates_out, result.shapelets.len());
    assert!(
        topk.counters.utility_evals > 0,
        "selection must evaluate utilities"
    );
    // the fixed-field view agrees with the report
    assert_eq!(result.timings, report.timings());
    assert_eq!(report.total(), result.timings.total());
}

#[test]
fn naive_path_reports_zero_dabf_build_but_counts_probes() {
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.use_dabf = false;
    let result = IpsDiscovery::new(cfg).discover(&train).unwrap();
    assert_eq!(
        result.report.elapsed(Stage::DabfBuild),
        std::time::Duration::ZERO
    );
    assert!(
        result
            .report
            .stage(Stage::Pruning)
            .unwrap()
            .counters
            .dabf_probes
            > 0
    );
}

#[test]
fn observer_hook_fires_once_per_stage_in_order() {
    let train = synth_train();
    let mut obs = CollectingObserver::default();
    let result = IpsDiscovery::new(base_cfg())
        .discover_with_observer(&train, &mut obs)
        .unwrap();
    let observed: Vec<Stage> = obs.reports.iter().map(|r| r.stage).collect();
    assert_eq!(observed, Stage::ALL.to_vec());
    // the observer saw exactly what the report recorded
    assert_eq!(obs.reports, result.report.stages().to_vec());
}

/// Provenance view of a shapelet set: what the ISSUE-level "identical
/// selection" contract pins (instances, offsets, classes, lengths) —
/// scores are allowed to differ by float tolerance between the naive and
/// FFT evaluation orders, the selection is not.
fn provenance(shapelets: &[ips_classify::Shapelet]) -> Vec<(usize, usize, u32, usize)> {
    shapelets
        .iter()
        .map(|s| (s.source_instance, s.source_offset, s.class, s.len()))
        .collect()
}

#[test]
fn fft_kernel_selects_identical_shapelets_across_grid() {
    let train = synth_train();
    for (use_dabf, use_dt_cr) in [(true, true), (true, false), (false, false), (false, true)] {
        for threads in [1, 2] {
            let mut cfg = base_cfg().with_threads(threads);
            cfg.use_dabf = use_dabf;
            cfg.use_dt_cr = use_dt_cr;
            let mut naive_cfg = cfg.clone();
            naive_cfg.use_fft_kernel = false;
            let kern = IpsDiscovery::new(cfg).discover(&train).unwrap();
            let naive = IpsDiscovery::new(naive_cfg).discover(&train).unwrap();
            let tag = format!("dabf={use_dabf} dtcr={use_dt_cr} threads={threads}");
            assert_eq!(
                provenance(&kern.shapelets),
                provenance(&naive.shapelets),
                "selection diverges: {tag}"
            );
            for (a, b) in kern.shapelets.iter().zip(&naive.shapelets) {
                assert!(
                    (a.score - b.score).abs() <= 1e-9 * (1.0 + b.score.abs()),
                    "score drift beyond tolerance: {tag}"
                );
            }
        }
    }
}

#[test]
fn exact_scoring_counters_partition_the_distance_requests() {
    // Exact strategy + fft kernel: every sliding-distance request is
    // either a kernel/naive evaluation (miss) or a memo hit, and the
    // analytic utility_evals counts exactly the requests.
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false; // force the Exact strategy
    let result = IpsDiscovery::new(cfg).discover(&train).unwrap();
    let topk = result.report.stage(Stage::TopK).unwrap().counters;
    assert!(
        topk.kernel_evals > 0,
        "exact scoring must evaluate distances"
    );
    assert_eq!(
        topk.kernel_evals + topk.cache_hits,
        topk.utility_evals,
        "evals + hits must partition the distance requests"
    );
    // DT+CR works in DABF rank space and issues no sliding distances
    let mut cfg = base_cfg();
    cfg.use_dt_cr = true;
    let result = IpsDiscovery::new(cfg).discover(&train).unwrap();
    let topk = result.report.stage(Stage::TopK).unwrap().counters;
    assert_eq!((topk.kernel_evals, topk.cache_hits), (0, 0));
    // and with the kernel off, the exact path reports plain evals only
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false;
    cfg.use_fft_kernel = false;
    let result = IpsDiscovery::new(cfg).discover(&train).unwrap();
    let topk = result.report.stage(Stage::TopK).unwrap().counters;
    assert_eq!((topk.kernel_evals, topk.cache_hits), (0, 0));
    assert!(topk.utility_evals > 0);
}

#[test]
fn cache_counters_are_thread_count_invariant() {
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false;
    let reports: Vec<_> = [1, 2]
        .iter()
        .map(|&t| {
            IpsDiscovery::new(cfg.clone().with_threads(t))
                .discover(&train)
                .unwrap()
                .report
        })
        .collect();
    let a = reports[0].stage(Stage::TopK).unwrap().counters;
    let b = reports[1].stage(Stage::TopK).unwrap().counters;
    assert_eq!(
        (a.kernel_evals, a.cache_hits),
        (b.kernel_evals, b.cache_hits)
    );
}

#[test]
fn forced_kernel_scoring_matches_naive_scores() {
    // The grid test above exercises the Auto crossover, which keeps the
    // naive loop on short synth series; this pins the FFT path itself
    // against naive scoring through the engine's scoring entry point.
    use ips_core::{score_exact, score_exact_with_cache};
    use ips_distance::{DistCache, KernelPolicy};
    let train = synth_train();
    let cfg = base_cfg();
    let pool = generate_candidates(&train, &cfg);
    let mut cache = DistCache::with_policy(KernelPolicy::ForceKernel);
    for &class in &[0u32, 1, 2] {
        let plain = score_exact(&pool, &train, &cfg, class);
        let (forced, requests) = score_exact_with_cache(&pool, &train, &cfg, class, &mut cache);
        assert_eq!(plain.len(), forced.len());
        for (i, (a, b)) in plain.iter().zip(&forced).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                "class {class} candidate {i}: naive {a} vs forced-kernel {b}"
            );
        }
        assert!(requests > 0);
    }
    let stats = cache.stats();
    assert!(stats.kernel_evals + stats.cache_hits > 0);
}

/// Series-major exact scoring (record → evaluate → replay) must reproduce
/// the uncached per-request reference `score_exact` bit for bit. With `k`
/// as large as the pool, the selector admits every distinct motif, so each
/// class's whole score vector is compared through the shapelets' scores
/// (`score = −u`).
#[test]
fn selector_scores_equal_uncached_score_exact_bitwise() {
    use ips_core::engine::UtilitySelector;
    use ips_core::{score_exact, ExecContext, Selector, WorkerPool};
    let (train, _) = registry::load("ItalyPowerDemand").unwrap();
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false;
    let pool = generate_candidates(&train, &cfg);
    let cfg = cfg.with_k(pool.len());
    let classes = pool.classes();
    let reference: Vec<Vec<f64>> = classes
        .iter()
        .map(|&c| score_exact(&pool, &train, &cfg, c))
        .collect();
    for threads in [1, 2, 4] {
        for chunk in [ChunkSize::Auto, ChunkSize::Fixed(7)] {
            let cfg = cfg.clone().with_threads(threads).with_chunk_size(chunk);
            let mut ctx = ExecContext::new(WorkerPool::new(threads));
            let selection = UtilitySelector::new(cfg)
                .select(&pool, &train, None, &mut ctx)
                .unwrap();
            let tag = format!("threads={threads} chunk={chunk:?}");
            let mut compared = vec![0usize; classes.len()];
            for s in &selection.shapelets {
                let ci = classes.iter().position(|&c| c == s.class).unwrap();
                let idx = pool
                    .motifs_of(s.class)
                    .position(|m| {
                        (m.source_instance, m.source_offset, m.values.len())
                            == (s.source_instance, s.source_offset, s.values.len())
                    })
                    .unwrap();
                assert_eq!(
                    s.score.to_bits(),
                    (-reference[ci][idx]).to_bits(),
                    "{tag}: class {} motif {idx}",
                    s.class
                );
                compared[ci] += 1;
            }
            for (ci, &c) in classes.iter().enumerate() {
                let mut distinct: Vec<(usize, usize, usize)> = pool
                    .motifs_of(c)
                    .map(|m| (m.source_instance, m.source_offset, m.values.len()))
                    .collect();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(compared[ci], distinct.len(), "{tag}: class {c} coverage");
            }
        }
    }
}

/// The tentpole determinism contract: the work-item scheduler must make
/// results *and counters* a pure function of the workload and the
/// `chunk_size` knob — bit-identical at every thread count for any fixed
/// chunking, with and without the FFT kernel.
#[test]
fn engine_is_bit_identical_across_threads_and_chunk_sizes() {
    let train = synth_train();
    for fft in [true, false] {
        let mut cfg = base_cfg();
        cfg.use_fft_kernel = fft;
        cfg.use_dt_cr = false; // Exact scoring exercises series-major evaluation
        let reference = IpsDiscovery::new(cfg.clone()).discover(&train).unwrap();
        for chunk in [ChunkSize::Auto, ChunkSize::Fixed(1), ChunkSize::Fixed(7)] {
            for threads in [1, 2, 4, 0] {
                let result =
                    IpsDiscovery::new(cfg.clone().with_threads(threads).with_chunk_size(chunk))
                        .discover(&train)
                        .unwrap();
                let tag = format!("fft={fft} chunk={chunk:?} threads={threads}");
                assert_eq!(result.shapelets, reference.shapelets, "shapelets: {tag}");
                assert_eq!(
                    result.candidates_generated, reference.candidates_generated,
                    "generated: {tag}"
                );
                assert_eq!(
                    result.candidates_pruned, reference.candidates_pruned,
                    "pruned: {tag}"
                );
                // Counters may legitimately vary with the chunk knob
                // (sched_items is defined by the partition), never with the
                // thread count at a fixed chunking.
                let same_chunk_ref =
                    IpsDiscovery::new(cfg.clone().with_threads(1).with_chunk_size(chunk))
                        .discover(&train)
                        .unwrap();
                for stage in Stage::ALL {
                    assert_eq!(
                        result.report.stage(stage).unwrap().counters,
                        same_chunk_ref.report.stage(stage).unwrap().counters,
                        "{stage:?} counters depend on threads: {tag}"
                    );
                }
            }
        }
    }
}

/// The sampled extension of the bit-identity contract: with a
/// `SampledCandidateSource` composed in, results *and the full
/// `StageCounters`* — including the new `sampled_candidates` — stay a
/// pure function of (workload, seed, chunk knob) across every thread ×
/// chunk × fft cell, and the sampled pool is a strict subset of the
/// dense pool.
#[test]
fn sampled_discovery_is_bit_identical_across_threads_chunks_and_fft() {
    let train = synth_train();
    for fft in [true, false] {
        let mut cfg = base_cfg().with_candidate_sampling(CandidateSampling::fraction(0.4));
        cfg.use_fft_kernel = fft;
        cfg.use_dt_cr = false; // Exact scoring exercises series-major evaluation
        let mut dense_cfg = cfg.clone();
        dense_cfg.candidate_sampling = None;
        let dense = IpsDiscovery::new(dense_cfg).discover(&train).unwrap();
        let reference = IpsDiscovery::new(cfg.clone()).discover(&train).unwrap();
        assert!(
            reference.candidates_generated < dense.candidates_generated,
            "sampling must shrink the pool"
        );
        let gen = reference
            .report
            .stage(Stage::CandidateGen)
            .unwrap()
            .counters;
        assert_eq!(gen.sampled_candidates, reference.candidates_generated);
        assert_eq!(gen.candidates_in, dense.candidates_generated);
        for chunk in [ChunkSize::Auto, ChunkSize::Fixed(1), ChunkSize::Fixed(7)] {
            let same_chunk_ref =
                IpsDiscovery::new(cfg.clone().with_threads(1).with_chunk_size(chunk))
                    .discover(&train)
                    .unwrap();
            for threads in [1, 2, 4, 0] {
                let result =
                    IpsDiscovery::new(cfg.clone().with_threads(threads).with_chunk_size(chunk))
                        .discover(&train)
                        .unwrap();
                let tag = format!("fft={fft} chunk={chunk:?} threads={threads}");
                assert_eq!(result.shapelets, reference.shapelets, "shapelets: {tag}");
                assert_eq!(
                    result.candidates_generated, reference.candidates_generated,
                    "generated: {tag}"
                );
                for stage in Stage::ALL {
                    assert_eq!(
                        result.report.stage(stage).unwrap().counters,
                        same_chunk_ref.report.stage(stage).unwrap().counters,
                        "{stage:?} counters depend on threads: {tag}"
                    );
                }
            }
        }
    }
}

/// `DiscoveryBudget::max_candidates` composes with sampling in that
/// order: the budget sees the *sampled* pool, so it stamps `degraded`
/// only when it cuts that pool — never merely because the dense
/// pre-sampling pool was larger (the regression the engine comments call
/// `sampling_budget`).
#[test]
fn sampling_budget_degrades_only_when_the_sampled_pool_is_cut() {
    let train = synth_train();
    let sampled_cfg = base_cfg().with_candidate_sampling(CandidateSampling::fraction(0.4));
    let mut dense_cfg = sampled_cfg.clone();
    dense_cfg.candidate_sampling = None;
    let dense = IpsDiscovery::new(dense_cfg.clone())
        .discover(&train)
        .unwrap();
    let sampled = IpsDiscovery::new(sampled_cfg.clone())
        .discover(&train)
        .unwrap();
    assert!(!sampled.degraded, "sampling alone must not stamp degraded");
    assert!(
        sampled.candidates_generated < dense.candidates_generated,
        "fixture needs a sampled pool strictly below the dense pool"
    );

    // A ceiling between the sampled and dense sizes: the dense pool would
    // have been cut, the sampled pool was not — no degradation.
    let budget = DiscoveryBudget {
        max_candidates: Some(sampled.candidates_generated),
        ..DiscoveryBudget::default()
    };
    let under = IpsDiscovery::new(sampled_cfg.clone().with_budget(budget))
        .discover(&train)
        .unwrap();
    assert!(
        !under.degraded,
        "budget ≥ sampled pool must not stamp degraded (sampled {}, dense {})",
        sampled.candidates_generated, dense.candidates_generated
    );
    assert_eq!(under.shapelets, sampled.shapelets);
    // …while the same ceiling on the dense run does cut.
    let dense_cut = IpsDiscovery::new(dense_cfg.with_budget(budget))
        .discover(&train)
        .unwrap();
    assert!(
        dense_cut.degraded,
        "the same ceiling must cut the dense run"
    );

    // A ceiling below the sampled size cuts the sampled pool itself.
    let tight = DiscoveryBudget {
        max_candidates: Some(sampled.candidates_generated - 1),
        ..DiscoveryBudget::default()
    };
    let cut = IpsDiscovery::new(sampled_cfg.with_budget(tight))
        .discover(&train)
        .unwrap();
    assert!(cut.degraded, "budget below the sampled pool must degrade");
    // Truncation applies after sampling: the pruning stage saw exactly
    // the budgeted pool.
    let pruning = cut.report.stage(Stage::Pruning).unwrap().counters;
    assert_eq!(pruning.candidates_in, sampled.candidates_generated - 1);
}

/// `sched_items` is part of the observability contract: non-zero for the
/// scheduled stages, finer chunking never yields fewer items, and
/// `Fixed(1)` degenerates to one item per work unit.
#[test]
fn sched_items_reflect_the_partition_and_ignore_threads() {
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false;
    let items_for = |chunk: ChunkSize, threads: usize| -> Vec<(Stage, usize)> {
        let result = IpsDiscovery::new(cfg.clone().with_threads(threads).with_chunk_size(chunk))
            .discover(&train)
            .unwrap();
        Stage::ALL
            .into_iter()
            .map(|s| (s, result.report.stage(s).unwrap().counters.sched_items))
            .collect()
    };
    let auto = items_for(ChunkSize::Auto, 1);
    for (stage, items) in &auto {
        match stage {
            Stage::CandidateGen | Stage::Pruning | Stage::TopK => {
                assert!(*items > 0, "{stage:?} must report scheduled items")
            }
            Stage::DabfBuild => assert_eq!(*items, 0, "DABF build is not partitioned"),
        }
    }
    assert_eq!(
        auto,
        items_for(ChunkSize::Auto, 4),
        "items vary with threads"
    );
    let unit = items_for(ChunkSize::Fixed(1), 2);
    for ((stage, fine), (_, coarse)) in unit.iter().zip(&auto) {
        assert!(
            fine >= coarse,
            "{stage:?}: Fixed(1) produced fewer items than Auto"
        );
    }
}

#[test]
fn counters_are_thread_count_invariant() {
    let train = synth_train();
    let runs: Vec<_> = [1, 2, 0]
        .iter()
        .map(|&t| {
            IpsDiscovery::new(base_cfg().with_threads(t))
                .discover(&train)
                .unwrap()
                .report
        })
        .collect();
    for r in &runs[1..] {
        for stage in Stage::ALL {
            assert_eq!(
                r.stage(stage).unwrap().counters,
                runs[0].stage(stage).unwrap().counters,
                "{stage:?} counters depend on thread count"
            );
        }
    }
}
