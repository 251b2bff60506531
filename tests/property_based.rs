//! Property-based tests on the core invariants of the system: support-set
//! algebra, season extraction, the anti-monotone `maxSeason` bound, relation
//! classification, information-theoretic quantities and the end-to-end
//! completeness of the pruning techniques.
//!
//! The build container has no access to crates.io, so instead of `proptest`
//! each property is checked over a deterministic stream of pseudo-random
//! cases drawn from the workspace's own seedable RNG
//! ([`freqstpfts::datagen::SeededRng`]). Failures print the case seed so a
//! case can be replayed exactly.

use freqstpfts::core::hlh::{HlhK, RelationAdjacency};
use freqstpfts::core::pattern::encode_pattern_key;
use freqstpfts::core::season::{
    find_seasons, near_support_sets, seasons_count, support_is_frequent,
};
use freqstpfts::core::support::{
    insert_sorted, intersect, intersect_into, intersect_positions_into, intersect_rows_into,
    iter_set_bits, union,
};
use freqstpfts::core::{
    classify_relation, PruningMode, RelationKind, StpmConfig, StpmMiner, TemporalPattern, Threshold,
};
use freqstpfts::datagen::SeededRng;
use freqstpfts::prelude::*;
use freqstpfts::timeseries::{EventInstance, Interval, SeriesId, SymbolId};
use std::collections::BTreeSet;

/// Number of random cases per lightweight property.
const CASES: u64 = 128;

/// A sorted, deduplicated support set over small granule ids.
fn random_support_set(rng: &mut SeededRng) -> Vec<u64> {
    let len = rng.next_below(60);
    let set: BTreeSet<u64> = (0..len).map(|_| 1 + rng.next_below(199)).collect();
    set.into_iter().collect()
}

fn resolved(
    max_period: u64,
    min_density: u64,
    dist: (u64, u64),
    min_season: u64,
) -> freqstpfts::core::ResolvedConfig {
    StpmConfig {
        max_period: Threshold::Absolute(max_period),
        min_density: Threshold::Absolute(min_density),
        dist_interval: dist,
        min_season,
        ..StpmConfig::default()
    }
    .resolve(200)
    .unwrap()
}

#[test]
fn intersection_is_subset_of_both() {
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let a = random_support_set(&mut rng);
        let b = random_support_set(&mut rng);
        let i = intersect(&a, &b);
        assert!(i.iter().all(|x| a.contains(x)), "seed {seed}");
        assert!(i.iter().all(|x| b.contains(x)), "seed {seed}");
        assert!(i.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        // Commutativity.
        assert_eq!(i, intersect(&b, &a), "seed {seed}");
    }
}

/// A short sorted set drawn partly *from* `long` (so intersections are
/// non-trivial) and partly from fresh values — the skewed-size regime that
/// makes `intersect_into` switch from the linear merge to galloping.
fn skewed_partner(rng: &mut SeededRng, long: &[u64]) -> Vec<u64> {
    let len = rng.next_below(6) as usize;
    let set: BTreeSet<u64> = (0..len)
        .map(|_| {
            if !long.is_empty() && rng.next_below(2) == 0 {
                long[rng.next_below(long.len() as u64) as usize]
            } else {
                1 + rng.next_below(40_000)
            }
        })
        .collect();
    set.into_iter().collect()
}

/// Strictly increasing set of exactly `len` elements with gap profile drawn
/// from `rng`: dense (gap 1–2) half the time to force runs of matches,
/// sparse otherwise.
fn increasing_set(rng: &mut SeededRng, len: usize) -> Vec<u64> {
    let dense = rng.next_below(2) == 0;
    let mut next = rng.next_below(16);
    let mut set = Vec::with_capacity(len);
    for _ in 0..len {
        set.push(next);
        next += if dense {
            1 + rng.next_below(2)
        } else {
            1 + rng.next_below(50)
        };
    }
    set
}

/// Edge set lengths: empty, single, and each side of every power of two up
/// to 64.
const EDGE_LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64];

#[test]
fn intersect_into_agrees_with_btreeset_reference() {
    // One reused output buffer across every case: stale contents from a
    // previous case must never leak into the next result.
    let mut out = Vec::new();
    let (mut pos_a, mut pos_b) = (Vec::new(), Vec::new());
    let mut check = |a: &[u64], b: &[u64], case: &str| {
        let expected: Vec<u64> = {
            let sa: BTreeSet<u64> = a.iter().copied().collect();
            let sb: BTreeSet<u64> = b.iter().copied().collect();
            sa.intersection(&sb).copied().collect()
        };
        intersect_into(&mut out, a, b);
        assert_eq!(out, expected, "{case}");
        assert_eq!(out, intersect(a, b), "{case}");
        // The indexed variant finds the same granules and records each
        // match's position in both inputs.
        intersect_positions_into(a, b, &mut out, &mut pos_a, &mut pos_b);
        assert_eq!(out, expected, "{case}");
        let positions = |set: &[u64]| -> Vec<u32> {
            expected
                .iter()
                .map(|g| u32::try_from(set.binary_search(g).unwrap()).unwrap())
                .collect()
        };
        assert_eq!(pos_a, positions(a), "{case}");
        assert_eq!(pos_b, positions(b), "{case}");
    };
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        // Alternate between same-order-of-magnitude sets (linear merge) and
        // sets skewed far beyond the galloping threshold.
        let (a, b) = if seed % 2 == 0 {
            (random_support_set(&mut rng), random_support_set(&mut rng))
        } else {
            let long: Vec<u64> = {
                let stride = 1 + rng.next_below(4);
                let len = 1_500 + rng.next_below(2_500);
                (0..len).map(|i| 1 + i * stride).collect()
            };
            let short = skewed_partner(&mut rng, &long);
            if rng.next_below(2) == 0 {
                (long, short)
            } else {
                (short, long)
            }
        };
        check(&a, &b, &format!("seed {seed}"));
        // Edge lengths on both sides, in four shapes: independent sets,
        // sets sharing elements, all-match and no-match.
        for &len_a in EDGE_LENS {
            let len_b = EDGE_LENS[rng.next_below(EDGE_LENS.len() as u64) as usize];
            let a = increasing_set(&mut rng, len_a);
            let b = increasing_set(&mut rng, len_b);
            let case = format!("seed {seed} lens {len_a}/{len_b}");
            check(&a, &b, &case);
            let mut shared: BTreeSet<u64> = b.iter().copied().collect();
            if !a.is_empty() {
                for _ in 0..len_b {
                    shared.insert(a[rng.next_below(a.len() as u64) as usize]);
                }
            }
            let shared: Vec<u64> = shared.into_iter().take(len_b).collect();
            check(&a, &shared, &format!("{case} shared"));
            check(&a, &a, &format!("{case} all-match"));
            let evens: Vec<u64> = a.iter().map(|x| x * 2).collect();
            let odds: Vec<u64> = b.iter().map(|x| x * 2 + 1).collect();
            check(&evens, &odds, &format!("{case} no-match"));
        }
    }
}

#[test]
fn union_agrees_with_btreeset_reference() {
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let a = random_support_set(&mut rng);
        let b = skewed_partner(&mut rng, &a);
        let expected: Vec<u64> = {
            let mut set: BTreeSet<u64> = a.iter().copied().collect();
            set.extend(b.iter().copied());
            set.into_iter().collect()
        };
        assert_eq!(union(&a, &b), expected, "seed {seed}");
        assert_eq!(union(&b, &a), expected, "seed {seed}");
    }
}

#[test]
fn union_contains_both_inputs() {
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let a = random_support_set(&mut rng);
        let b = random_support_set(&mut rng);
        let u = union(&a, &b);
        assert!(a.iter().all(|x| u.contains(x)), "seed {seed}");
        assert!(b.iter().all(|x| u.contains(x)), "seed {seed}");
        assert!(u.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        assert!(u.len() <= a.len() + b.len(), "seed {seed}");
    }
}

#[test]
fn insert_sorted_preserves_invariants() {
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let a = random_support_set(&mut rng);
        let extra: Vec<u64> = (0..rng.next_below(20))
            .map(|_| 1 + rng.next_below(199))
            .collect();
        let mut set = a.clone();
        for g in &extra {
            insert_sorted(&mut set, *g);
        }
        assert!(set.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        assert!(extra.iter().all(|g| set.contains(g)), "seed {seed}");
        assert!(a.iter().all(|g| set.contains(g)), "seed {seed}");
    }
}

#[test]
fn near_support_sets_partition_the_support() {
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let support = random_support_set(&mut rng);
        let max_period = 1 + rng.next_below(9);
        let sets = near_support_sets(&support, max_period);
        let flattened: Vec<u64> = sets.iter().flatten().copied().collect();
        assert_eq!(flattened, support, "seed {seed}");
        for set in &sets {
            assert!(
                set.windows(2).all(|w| w[1] - w[0] <= max_period),
                "seed {seed}"
            );
        }
        // Gaps between consecutive near sets exceed maxPeriod.
        for pair in sets.windows(2) {
            let last = *pair[0].last().unwrap();
            let first = *pair[1].first().unwrap();
            assert!(first - last > max_period, "seed {seed}");
        }
    }
}

#[test]
fn seasons_respect_density_and_count_bounds() {
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let support = random_support_set(&mut rng);
        let max_period = 1 + rng.next_below(7);
        let min_density = 1 + rng.next_below(5);
        let min_season = 1 + rng.next_below(4);
        let config = resolved(max_period, min_density, (2, 50), min_season);
        let seasons = find_seasons(&support, &config);
        // Every season is dense enough and is made of support granules.
        for season in seasons.seasons() {
            assert!(season.len() as u64 >= min_density, "seed {seed}");
            assert!(season.iter().all(|g| support.contains(g)), "seed {seed}");
        }
        // The seasonal-occurrence count is bounded by the number of seasons
        // and by the anti-monotone maxSeason bound of Equation (1).
        assert!(
            seasons.count() as usize <= seasons.seasons().len(),
            "seed {seed}"
        );
        let max_season = support.len() as f64 / min_density as f64;
        assert!((seasons.count() as f64) <= max_season + 1e-9, "seed {seed}");
    }
}

/// The pre-span-representation season extraction, kept as the reference:
/// materialise the near support sets, trim each against the previously
/// accepted season, keep the dense ones, then scan the chain.
fn reference_find_seasons(
    support: &[u64],
    config: &freqstpfts::core::ResolvedConfig,
) -> (Vec<Vec<u64>>, u64) {
    let mut seasons: Vec<Vec<u64>> = Vec::new();
    for near in near_support_sets(support, config.max_period) {
        let mut granules = near;
        if let Some(prev) = seasons.last() {
            let prev_end = *prev.last().expect("seasons are non-empty");
            let keep_from = granules
                .iter()
                .position(|g| g.saturating_sub(prev_end) >= config.dist_min)
                .unwrap_or(granules.len());
            granules.drain(..keep_from);
        }
        if granules.len() as u64 >= config.min_density {
            seasons.push(granules);
        }
    }
    let chain = if seasons.is_empty() {
        0
    } else {
        let mut best = 1u64;
        let mut current = 1u64;
        for w in seasons.windows(2) {
            let dist = w[1].first().unwrap() - w[0].last().unwrap();
            if dist >= config.dist_min && dist <= config.dist_max {
                current += 1;
            } else {
                current = 1;
            }
            best = best.max(current);
        }
        best
    };
    (seasons, chain)
}

#[test]
fn span_based_seasons_match_the_reference_materializer() {
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let support = random_support_set(&mut rng);
        let max_period = 1 + rng.next_below(7);
        let min_density = 1 + rng.next_below(5);
        let min_season = 1 + rng.next_below(4);
        let dist_min = 1 + rng.next_below(8);
        let dist_max = dist_min + rng.next_below(40);
        let config = resolved(max_period, min_density, (dist_min, dist_max), min_season);

        let (ref_seasons, ref_chain) = reference_find_seasons(&support, &config);
        let seasons = find_seasons(&support, &config);
        let materialized: Vec<Vec<u64>> = seasons.seasons().map(<[u64]>::to_vec).collect();
        assert_eq!(materialized, ref_seasons, "seed {seed}");
        assert_eq!(seasons.count(), ref_chain, "seed {seed}");
        assert_eq!(
            seasons.densities().collect::<Vec<_>>(),
            ref_seasons
                .iter()
                .map(|s| s.len() as u64)
                .collect::<Vec<_>>(),
            "seed {seed}"
        );
        assert_eq!(
            seasons.distances().collect::<Vec<_>>(),
            ref_seasons
                .windows(2)
                .map(|w| w[1].first().unwrap() - w[0].last().unwrap())
                .collect::<Vec<_>>(),
            "seed {seed}"
        );
        // The allocation-free fast paths agree with the materialiser.
        assert_eq!(seasons_count(&support, &config), ref_chain, "seed {seed}");
        assert_eq!(
            support_is_frequent(&support, &config),
            ref_chain >= min_season,
            "seed {seed}"
        );
    }
}

#[test]
#[cfg_attr(miri, ignore)] // interpreter-slow: dataset-scale loop
fn season_tracker_matches_the_batch_walker_on_every_prefix() {
    // The streaming miner's per-pattern season state must agree with the
    // batch season extraction at *every* prefix of an append-only support
    // set — this is the invariant streaming/batch exactness rests on.
    use freqstpfts::core::season::SeasonTracker;
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let support = random_support_set(&mut rng);
        let max_period = 1 + rng.next_below(7);
        let min_density = 1 + rng.next_below(5);
        let min_season = 1 + rng.next_below(4);
        let dist_min = 1 + rng.next_below(8);
        let dist_max = dist_min + rng.next_below(40);
        let config = resolved(max_period, min_density, (dist_min, dist_max), min_season);
        let mut tracker = SeasonTracker::default();
        for (idx, &granule) in support.iter().enumerate() {
            tracker.push(idx, granule, &config);
            let prefix = &support[..=idx];
            assert_eq!(
                tracker.snapshot(prefix, &config),
                find_seasons(prefix, &config),
                "seed {seed}, prefix {prefix:?}"
            );
            assert_eq!(
                tracker.count(prefix.len(), &config),
                seasons_count(prefix, &config),
                "seed {seed}"
            );
            assert_eq!(
                tracker.is_frequent(prefix.len(), &config),
                support_is_frequent(prefix, &config),
                "seed {seed}"
            );
        }
        // Rebuilding from the full support reproduces the incremental state.
        assert_eq!(
            SeasonTracker::rebuild(&support, &config),
            tracker,
            "seed {seed}"
        );
    }
}

#[test]
#[cfg_attr(miri, ignore)] // interpreter-slow: dataset-scale loop
fn adjacency_bitset_enumeration_matches_the_naive_f1_scan() {
    let label_at = |i: usize| EventLabel::new(SeriesId(i as u32), SymbolId(0));
    for seed in 0..CASES / 2 {
        let mut rng = SeededRng::seed_from_u64(seed);
        // Universes beyond 64 labels exercise multi-word rows.
        let n = 4 + rng.next_below(90) as usize;
        let labels: Vec<EventLabel> = (0..n).map(label_at).collect();
        let mut hlh2 = HlhK::new(2);
        for i in 0..n {
            for j in i + 1..n {
                let roll = rng.next_below(6);
                if roll == 0 {
                    // A related pair: group plus one candidate pattern.
                    let group = hlh2.insert_group(vec![labels[i], labels[j]], vec![1]);
                    let pattern =
                        TemporalPattern::pair([labels[i], labels[j]], RelationKind::Follows, false);
                    let key = encode_pattern_key(&pattern);
                    let binding = [
                        EventInstance::new(labels[i], Interval::new(1, 1)),
                        EventInstance::new(labels[j], Interval::new(2, 2)),
                    ];
                    hlh2.add_pattern_occurrence(
                        group,
                        &key,
                        || pattern.clone(),
                        1,
                        &binding[..1],
                        binding[1],
                    );
                } else if roll == 1 {
                    // A co-occurring pair that never classified: registered
                    // group, empty pattern list — must contribute no edge.
                    hlh2.insert_group(vec![labels[i], labels[j]], vec![1]);
                }
            }
        }
        let adjacency = RelationAdjacency::build(&hlh2, &labels);
        // Pairwise agreement with the hash-probe lookup.
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                assert_eq!(
                    adjacency.has_relation_between(i, j),
                    hlh2.has_relation_between(labels[i], labels[j]),
                    "seed {seed}, pair ({i}, {j})"
                );
            }
        }
        // Extension enumeration: the AND of the member rows walked beyond
        // the last member equals the naive filter over the sorted labels.
        let mut row = Vec::new();
        for _ in 0..8 {
            let member_count = 1 + rng.next_below(3) as usize;
            let members: BTreeSet<usize> = (0..member_count)
                .map(|_| rng.next_below(n as u64) as usize)
                .collect();
            let last = *members.iter().next_back().unwrap();
            let naive: Vec<EventLabel> = labels
                .iter()
                .copied()
                .filter(|&e| {
                    e > labels[last]
                        && members
                            .iter()
                            .all(|&m| hlh2.has_relation_between(labels[m], e))
                })
                .collect();
            let member_rows: Vec<&[u64]> = members.iter().map(|&m| adjacency.row(m)).collect();
            intersect_rows_into(&mut row, &member_rows);
            let enumerated: Vec<EventLabel> = iter_set_bits(&row, last + 1)
                .map(|id| adjacency.label(id))
                .collect();
            assert_eq!(enumerated, naive, "seed {seed}, members {members:?}");
        }
    }
}

#[test]
fn max_season_is_anti_monotone_under_subsets() {
    // SUP(P) ⊆ SUP(P') implies maxSeason(P) <= maxSeason(P') (Lemma 1).
    let config = resolved(3, 2, (2, 50), 2);
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let a = random_support_set(&mut rng);
        let b = random_support_set(&mut rng);
        let sub = intersect(&a, &b);
        assert!(
            config.max_season(sub.len()) <= config.max_season(a.len()) + 1e-9,
            "seed {seed}"
        );
        assert!(
            config.max_season(sub.len()) <= config.max_season(b.len()) + 1e-9,
            "seed {seed}"
        );
    }
}

#[test]
fn relation_classification_is_deterministic_and_exclusive() {
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let s1 = 1 + rng.next_below(49);
        let len1 = rng.next_below(10);
        let s2 = 1 + rng.next_below(49);
        let len2 = rng.next_below(10);
        let eps = rng.next_below(3);
        let a = Interval::new(s1, s1 + len1);
        let b = Interval::new(s2, s2 + len2);
        let (first, second) =
            if (a.start, std::cmp::Reverse(a.end)) <= (b.start, std::cmp::Reverse(b.end)) {
                (a, b)
            } else {
                (b, a)
            };
        let r1 = classify_relation(&first, &second, eps, 1);
        let r2 = classify_relation(&first, &second, eps, 1);
        assert_eq!(r1, r2, "seed {seed}");
        // With d_o = 1 every ordered pair must classify into exactly one of
        // the three relations (the classifier is total for min_overlap = 1).
        assert!(r1.is_some(), "seed {seed}");
    }
}

#[test]
fn nmi_is_bounded_and_reflexive() {
    use freqstpfts::approx::normalized_mi;
    use freqstpfts::timeseries::SymbolId;
    use freqstpfts::timeseries::{Alphabet, SymbolicSeries};
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let len = 16 + rng.next_below(112) as usize;
        let bits: Vec<u16> = (0..len).map(|_| rng.next_below(2) as u16).collect();
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let series = SymbolicSeries::new(
            "X".into(),
            bits.iter().map(|b| SymbolId(*b)).collect(),
            alphabet.clone(),
        );
        let shifted = SymbolicSeries::new(
            "Y".into(),
            bits.iter().rev().map(|b| SymbolId(*b)).collect(),
            alphabet,
        );
        let self_nmi = normalized_mi(&series, &series);
        let cross_nmi = normalized_mi(&series, &shifted);
        assert!((0.0..=1.0).contains(&cross_nmi), "seed {seed}");
        // A non-constant series fully informs itself.
        if bits.contains(&0) && bits.contains(&1) {
            assert!((self_nmi - 1.0).abs() < 1e-9, "seed {seed}");
        } else {
            assert_eq!(self_nmi, 0.0, "seed {seed}");
        }
    }
}

#[test]
fn mu_threshold_is_monotone_in_event_probability() {
    use freqstpfts::approx::mu_threshold;
    for seed in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(seed);
        let lambda1 = 0.05 + 0.9 * rng.next_f64();
        let min_season = 1 + rng.next_below(19);
        let min_density = 1 + rng.next_below(9);
        let mu_rare = mu_threshold(lambda1, 0.05, min_season, min_density, 1000);
        let mu_common = mu_threshold(lambda1, 0.6, min_season, min_density, 1000);
        assert!((0.0..=1.0).contains(&mu_rare), "seed {seed}");
        assert!((0.0..=1.0).contains(&mu_common), "seed {seed}");
        assert!(mu_rare + 1e-9 >= mu_common, "seed {seed}");
    }
}

// Mining whole random databases is more expensive; fewer cases.

#[test]
#[cfg_attr(miri, ignore)] // interpreter-slow: dataset-scale loop
fn pruning_never_changes_the_mined_output() {
    for case in 0..12u64 {
        let mut rng = SeededRng::seed_from_u64(case);
        let seed = rng.next_below(1000);
        let min_season = 1 + rng.next_below(2);
        let min_density = 2 + rng.next_below(2);
        let spec = DatasetSpec::real(DatasetProfile::Influenza)
            .scaled_to(5, 120)
            .with_seed(seed);
        let data = generate(&spec);
        let dseq = data.dseq().unwrap();
        let config = StpmConfig {
            max_period: Threshold::Absolute(4),
            min_density: Threshold::Absolute(min_density),
            dist_interval: (3, 60),
            min_season,
            max_pattern_len: 2,
            ..StpmConfig::default()
        };
        let mut counts = Vec::new();
        for mode in PruningMode::all_modes() {
            let report =
                StpmMiner::mine_sequences(&dseq, &config.clone().with_pruning(mode)).unwrap();
            counts.push((report.events().len(), report.patterns().len()));
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "case {case}: {counts:?}"
        );
    }
}

#[test]
#[cfg_attr(miri, ignore)] // interpreter-slow: dataset-scale loop
fn every_reported_pattern_satisfies_the_seasonality_constraints() {
    for case in 0..12u64 {
        let mut rng = SeededRng::seed_from_u64(case);
        let seed = rng.next_below(500);
        let spec = DatasetSpec::real(DatasetProfile::SmartCity)
            .scaled_to(5, 104)
            .with_seed(seed);
        let data = generate(&spec);
        let dseq = data.dseq().unwrap();
        let config = StpmConfig {
            max_period: Threshold::Absolute(3),
            min_density: Threshold::Absolute(2),
            dist_interval: (2, 40),
            min_season: 2,
            max_pattern_len: 2,
            ..StpmConfig::default()
        };
        let resolved = config.resolve(dseq.num_granules()).unwrap();
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        for pattern in report.patterns() {
            // Season count respects minSeason and every season is dense
            // enough.
            assert!(
                pattern.seasons().count() >= resolved.min_season,
                "case {case}"
            );
            for season in pattern.seasons().seasons() {
                assert!(season.len() as u64 >= resolved.min_density, "case {case}");
                assert!(
                    season
                        .windows(2)
                        .all(|w| w[1] - w[0] <= resolved.max_period),
                    "case {case}"
                );
            }
            // The support set only references granules where every event of
            // the pattern occurs.
            for granule in pattern.support() {
                let sequence = dseq.sequence_at(*granule).unwrap();
                for event in pattern.pattern().events() {
                    assert!(sequence.contains_event(*event), "case {case}");
                }
            }
        }
    }
}

#[test]
#[cfg_attr(miri, ignore)] // interpreter-slow: dataset-scale loop
fn structural_validators_accept_randomized_mining_state() {
    // The `invariants` validators must accept every state the miners
    // actually construct: batch HLH_1 tables, materialised seasons,
    // incrementally-pushed season trackers, and streaming state after
    // arbitrary batch splits. (The gated call sites inside the miners run
    // the same checks under debug_assertions; calling them here keeps the
    // validators exercised even in release property runs.)
    use freqstpfts::core::season::SeasonTracker;
    use freqstpfts::core::{Hlh1, StreamingMiner};
    for case in 0..8u64 {
        let mut rng = SeededRng::seed_from_u64(case);
        let spec = DatasetSpec::real(DatasetProfile::Influenza)
            .scaled_to(4, 90)
            .with_seed(rng.next_below(1000));
        let data = generate(&spec);
        let dseq = data.dseq().unwrap();
        let config = StpmConfig {
            max_period: Threshold::Absolute(3 + rng.next_below(3)),
            min_density: Threshold::Absolute(2),
            dist_interval: (2, 50),
            min_season: 1 + rng.next_below(2),
            max_pattern_len: 3,
            ..StpmConfig::default()
        };
        let resolved = config.resolve(dseq.num_granules()).unwrap();

        let hlh1 = Hlh1::build(&dseq, &resolved, true);
        hlh1.validate()
            .unwrap_or_else(|violation| panic!("case {case}: {violation}"));
        for &label in hlh1.labels() {
            let entry = hlh1.entry(label).unwrap();
            find_seasons(&entry.support, &resolved)
                .validate()
                .unwrap_or_else(|violation| panic!("case {case}: {violation}"));
            let tracker = SeasonTracker::rebuild(&entry.support, &resolved);
            tracker
                .validate(&entry.support, &resolved)
                .unwrap_or_else(|violation| panic!("case {case}: {violation}"));
        }

        // Streaming state stays valid across every batch boundary.
        let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
        let mut from = 0usize;
        while from < dseq.sequences().len() {
            let to = (from + 1 + rng.next_below(9) as usize).min(dseq.sequences().len());
            miner.append_batch(&dseq.sequences()[from..to]).unwrap();
            miner
                .validate()
                .unwrap_or_else(|violation| panic!("case {case}: {violation}"));
            from = to;
        }
        miner.checkpoint().unwrap();
    }
}

#[test]
fn validators_reject_a_corrupted_tracker() {
    // Sanity: the cross-check actually detects divergence, it does not
    // vacuously accept. A tracker replayed over a *different* support must
    // be rejected by the replay cross-check.
    use freqstpfts::core::season::SeasonTracker;
    let config = resolved(3, 2, (2, 40), 1);
    let support: Vec<u64> = vec![1, 2, 3, 10, 11, 12];
    let tracker = SeasonTracker::rebuild(&support, &config);
    tracker.validate(&support, &config).unwrap();
    let other: Vec<u64> = vec![1, 2, 3, 4, 5, 6];
    assert!(
        tracker.validate(&other, &config).is_err(),
        "tracker accepted a support it was never fed"
    );
}
