//! `batch-wide`: raw series → seasonal patterns through the `timeseries`,
//! `miner` and `approx` layers, one dataset after another on one thread.

use crate::trace::Tracer;
use crate::{stats, Outcome, Rounds, SetupTimer};
use freqstpfts::approx::{AStpmMiner, NmiMatrix};
use freqstpfts::core::engine::phases;
use freqstpfts::core::{
    accuracy, canonical_result_set, EngineReport, Hlh1, LevelStats, MiningEngine, MiningInput,
    StpmConfig, StpmMiner, Threshold,
};
use freqstpfts::datagen::{generate, DatasetProfile, DatasetSpec, GeneratedDataset};
use freqstpfts::timeseries::{
    EqualWidthSymbolizer, SequenceDatabase, SymbolicDatabase, Symbolizer,
};
use std::time::Instant;

const PROFILE: DatasetProfile = DatasetProfile::RenewableEnergy;

/// Datasets a run mines, each generated from its own seed derived from the
/// run's seed, so the metrics describe the dataset shape rather than one
/// draw of the generator.
const SUITE: usize = 4;

/// Passes over the suite a run makes; each pass is one round. The count is
/// fixed, so every metric is the same statistic over the same number of
/// samples whatever the speed of the code or the host.
const PASSES: usize = 12;

/// 16 series × 720 granules: many events, so level-3 extension dominates.
const SERIES: usize = 16;
const GRANULES: u64 = 720;

pub fn config() -> StpmConfig {
    let (lo, hi) = PROFILE.dist_interval();
    StpmConfig {
        max_period: Threshold::Fraction(0.006),
        min_density: Threshold::Fraction(0.0075),
        dist_interval: (lo.max(2), hi.max(10)),
        min_season: 2,
        max_pattern_len: 3,
        ..StpmConfig::default()
    }
    .with_threads(1)
}

/// Raw series → `D_SYB`: one equal-width symbolizer fitted per series.
fn symbolize(data: &GeneratedDataset) -> SymbolicDatabase {
    let fitted: Vec<EqualWidthSymbolizer> = data
        .raw
        .iter()
        .map(|ts| {
            EqualWidthSymbolizer::fit(ts, PROFILE.symbols_per_series())
                .expect("generated series are valid")
        })
        .collect();
    let refs: Vec<&dyn Symbolizer> = fitted.iter().map(|s| s as &dyn Symbolizer).collect();
    SymbolicDatabase::from_series_with(&data.raw, &refs).expect("generated series align")
}

/// Raw series → pattern set with one engine, each layer in its own span.
fn raw_to_patterns(
    tracer: &mut Tracer,
    request: u64,
    data: &GeneratedDataset,
    engine: &dyn MiningEngine,
    engine_span: &'static str,
    config: &StpmConfig,
) -> (SymbolicDatabase, SequenceDatabase, EngineReport) {
    let dsyb = tracer.span("timeseries.symbolize", request, |_| symbolize(data));
    let dseq = tracer.span("timeseries.dseq", request, |_| {
        dsyb.to_sequence_database(data.mapping_factor)
            .expect("generated data maps to sequences")
    });
    let report = tracer.span(engine_span, request, |_| {
        let input = MiningInput::new(&dsyb, &dseq, data.mapping_factor);
        engine
            .mine_with(&input, config)
            .expect("the benchmark configuration is valid")
    });
    (dsyb, dseq, report)
}

/// FNV-1a over the canonical result set (patterns, supports and seasons).
fn digest(report: &EngineReport) -> u64 {
    canonical_result_set(report.events(), report.patterns())
        .iter()
        .flat_map(|line| line.bytes().chain(std::iter::once(b'\n')))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One dataset of the suite: its input and the reports of its first pass.
struct Member {
    data: GeneratedDataset,
    first: Option<(u64, EngineReport, EngineReport)>,
}

/// The datasets of one run: [`SUITE`] seeds derived from the run's seed.
fn suite(seed: u64) -> Vec<GeneratedDataset> {
    (0..SUITE as u64)
        .map(|i| {
            generate(
                &DatasetSpec::real(PROFILE)
                    .scaled_to(SERIES, GRANULES)
                    .with_seed(seed.wrapping_mul(SUITE as u64).wrapping_add(i)),
            )
        })
        .collect()
}

/// Median over passes of the per-dataset mean of `per_dataset`, whose
/// entries run pass by pass, [`SUITE`] to a pass.
fn per_pass(per_dataset: &[f64]) -> f64 {
    let means: Vec<f64> = per_dataset
        .chunks(SUITE)
        .map(|pass| pass.iter().sum::<f64>() / pass.len() as f64)
        .collect();
    stats::median(&means)
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut setup = SetupTimer::default();
    let datasets = setup.time(|| suite(seed));
    let config = config();

    // The symbolization the benchmark times must reproduce the generator's.
    for data in &datasets {
        assert_eq!(
            symbolize(data),
            data.dsyb,
            "symbolization diverged from the generator"
        );
    }
    let mut members: Vec<Member> = datasets
        .into_iter()
        .map(|data| Member { data, first: None })
        .collect();

    // Per pass, one entry per dataset.
    let (mut e_ms, mut a_ms) = (Vec::new(), Vec::new());
    let (mut single_ms, mut patterns_ms, mut mi_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut request = 0_u64;
    let mut rounds = Rounds::start(seconds);
    for pass in 0..PASSES {
        if pass > 0 && !rounds.another() {
            break;
        }
        drop(setup.time(|| suite(seed)));
        let (mut e_pass, mut a_pass) = (Vec::new(), Vec::new());
        for member in &mut members {
            let data = &member.data;
            let t0 = Instant::now();
            let (dsyb, dseq, exact) = tracer.span("batch.estpm", request, |t| {
                raw_to_patterns(t, request, data, &StpmMiner, "miner.mine", &config)
            });
            let t1 = Instant::now();
            let (_, _, approx) = tracer.span("batch.astpm", request, |t| {
                raw_to_patterns(t, request, data, &AStpmMiner::new(), "approx.mine", &config)
            });
            let t2 = Instant::now();
            e_pass.push(ms(t1 - t0));
            a_pass.push(ms(t2 - t1));
            single_ms.push(ms(exact.phase_time(phases::SINGLE_EVENTS)));
            patterns_ms.push(ms(exact.phase_time(phases::PATTERNS)));
            mi_ms.push(ms(approx.phase_time(phases::MI)));
            if tracer.enabled() {
                // Layer calls the pipeline makes internally, repeated outside
                // the timed iteration so the end-to-end numbers stay
                // comparable.
                let resolved = config
                    .resolve(dseq.num_granules())
                    .expect("the benchmark configuration is valid");
                tracer.span("hlh.hlh1", request, |_| Hlh1::build(&dseq, &resolved, true));
                tracer.span("approx.nmi", request, |_| NmiMatrix::compute(&dsyb));
            }
            match &member.first {
                None => member.first = Some((digest(&exact), exact, approx)),
                Some((d, _, _)) => {
                    assert_eq!(digest(&exact), *d, "E-STPM output changed between passes");
                }
            }
            request += 1;
        }
        e_ms.push(e_pass);
        a_ms.push(a_pass);
    }

    let firsts: Vec<&(u64, EngineReport, EngineReport)> = members
        .iter()
        .map(|m| m.first.as_ref().expect("every dataset ran"))
        .collect();
    let (mut e_patterns, mut a_patterns, mut accuracy_pct) = (0, 0, 0.0);
    let mut suite_digest = 0xcbf2_9ce4_8422_2325_u64;
    for (d, exact, approx) in &firsts {
        let e_set = exact.pattern_set();
        let a_set = approx.pattern_set();
        assert!(
            a_set.is_subset(&e_set),
            "A-STPM found patterns E-STPM did not"
        );
        e_patterns += e_set.len();
        a_patterns += a_set.len();
        accuracy_pct += accuracy(exact, approx) / SUITE as f64;
        suite_digest = (suite_digest ^ d).wrapping_mul(0x0100_0000_01b3);
    }

    let mut out = Outcome::new(request * 2, 0);
    let e_p50: Vec<f64> = e_ms.iter().map(|p| stats::median(p)).collect();
    let a_p50: Vec<f64> = a_ms.iter().map(|p| stats::median(p)).collect();
    let e_rate: Vec<f64> = e_ms
        .iter()
        .map(|p| p.len() as f64 * 1e3 / p.iter().sum::<f64>())
        .collect();
    let e_passes: Vec<&[f64]> = e_ms.iter().map(Vec::as_slice).collect();
    out.e2e("setup_s", setup.median(), "s");
    out.e2e_best("main_p50_ms", "ms", false, &e_p50);
    out.e2e_p90("main_p90_ms", &e_passes);
    out.e2e_best("main_per_s", "1/s", true, &e_rate);
    out.e2e_best("side_p50_ms", "ms", false, &a_p50);
    out.alias("estpm_s", "main_p50_ms", 1e-3, "s");
    out.alias("astpm_s", "side_p50_ms", 1e-3, "s");
    out.named("astpm_accuracy_pct", accuracy_pct, "%");
    out.info_str("estpm_digest", &format!("{suite_digest:016x}"));
    out.info_num("estpm_patterns", e_patterns as f64);
    out.info_num("astpm_patterns", a_patterns as f64);
    let first_pass: Vec<String> = e_ms[0].iter().map(|v| format!("{v:.1}")).collect();
    out.info_str("estpm_ms_per_dataset", &first_pass.join(" "));

    out.layer("approx.accuracy_pct", accuracy_pct, "%");
    if tracer.enabled() {
        let pass = |name: &str| per_pass(&tracer.durations_ms(name));
        out.layer(
            "timeseries.symbolize_ms",
            pass("timeseries.symbolize"),
            "ms",
        );
        out.layer("timeseries.dseq_ms", pass("timeseries.dseq"), "ms");
        out.layer("hlh.hlh1_ms", pass("hlh.hlh1"), "ms");
        out.layer("miner.mine_ms", pass("miner.mine"), "ms");
        out.layer("miner.single_events_ms", per_pass(&single_ms), "ms");
        out.layer("miner.patterns_ms", per_pass(&patterns_ms), "ms");
        // Counts are summed over the suite.
        let level = |k: usize, f: fn(&LevelStats) -> usize| -> f64 {
            firsts
                .iter()
                .flat_map(|(_, e, _)| e.stats().levels.iter().filter(move |l| l.k == k))
                .map(|l| f(l) as f64)
                .sum()
        };
        let k3_candidates = level(3, |l| l.candidate_patterns);
        let k3_frequent = level(3, |l| l.frequent_patterns);
        out.layer(
            "miner.k2.candidates",
            level(2, |l| l.candidate_patterns),
            "count",
        );
        out.layer(
            "miner.k2.frequent",
            level(2, |l| l.frequent_patterns),
            "count",
        );
        out.layer("miner.k3.candidates", k3_candidates, "count");
        out.layer("miner.k3.frequent", k3_frequent, "count");
        let useful = if k3_candidates == 0.0 {
            0.0
        } else {
            k3_frequent / k3_candidates
        };
        out.layer("miner.k3.useful_ratio", useful, "ratio");
        let sum = |f: fn(&EngineReport) -> f64| firsts.iter().map(|(_, e, _)| f(e)).sum::<f64>();
        out.layer(
            "miner.classifier_calls_saved",
            sum(|e| e.classifier_calls_saved() as f64),
            "count",
        );
        out.layer(
            "miner.adjacency_pruned",
            sum(|e| e.adjacency_pruned_candidates() as f64),
            "count",
        );
        let footprint = firsts
            .iter()
            .map(|(_, e, _)| e.memory_mib())
            .fold(0.0, f64::max);
        out.layer("miner.footprint_mib", footprint, "MiB");
        out.layer("approx.mine_ms", pass("approx.mine"), "ms");
        out.layer("approx.mi_ms", per_pass(&mi_ms), "ms");
        out.layer("approx.nmi_ms", pass("approx.nmi"), "ms");
        let pruned = firsts
            .iter()
            .map(|(_, _, a)| a.pruning().pruned_series_pct())
            .sum::<f64>()
            / SUITE as f64;
        out.layer("approx.pruned_series_pct", pruned, "%");
    }
    out
}
