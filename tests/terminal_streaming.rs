//! The exact miner streams its last level (`k == max_pattern_len`) one
//! combination at a time instead of building it. Mining with a
//! `max_pattern_len` one higher materialises that same level as an ordinary
//! `HLH_k` and extends it, so the two runs must agree on everything up to
//! length L: the output cut to patterns of length ≤ L (order, supports and
//! seasons included) and every per-level counter except the footprint,
//! whose terminal-level definition differs by design. L = 4 makes the
//! longer run extend a level-4 structure, which no other test reaches.

use freqstpfts::prelude::*;

/// The paper's running example (Table II / Table IV): five appliance series
/// at 5-minute granularity, mapped to 14 granules of 15 minutes.
fn paper_dsyb() -> SymbolicDatabase {
    let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
    let rows: &[(&str, &str)] = &[
        ("C", "110100110000000000111111000000100110000110"),
        ("D", "100100110110000000111111000000100100110110"),
        ("F", "001011001001111000000000111111001001001001"),
        ("M", "111100111110111111000111111111111000111000"),
        ("N", "110111111110111111000000111111111111111000"),
    ];
    let series: Vec<SymbolicSeries> = rows
        .iter()
        .map(|(name, bits)| {
            let labels: Vec<&str> = bits
                .chars()
                .map(|c| if c == '1' { "1" } else { "0" })
                .collect();
            SymbolicSeries::from_labels(name, &labels, alphabet.clone()).unwrap()
        })
        .collect();
    SymbolicDatabase::new(series).unwrap()
}

/// One database to mine, with the thresholds it is mined under.
struct Case {
    name: String,
    dsyb: SymbolicDatabase,
    mapping_factor: u64,
    config: StpmConfig,
}

fn cases() -> Vec<Case> {
    let mut cases = vec![Case {
        name: "paper example".into(),
        dsyb: paper_dsyb(),
        mapping_factor: 3,
        config: StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(2),
            dist_interval: (3, 10),
            min_season: 2,
            ..StpmConfig::default()
        },
    }];
    for seed in [11, 2024] {
        let data = generate(
            &DatasetSpec::real(DatasetProfile::RenewableEnergy)
                .scaled_to(8, 240)
                .with_seed(seed),
        );
        cases.push(Case {
            name: format!("RenewableEnergy seed {seed}"),
            dsyb: data.dsyb,
            mapping_factor: data.mapping_factor,
            config: StpmConfig {
                max_period: Threshold::Fraction(0.02),
                min_density: Threshold::Fraction(0.01),
                dist_interval: DatasetProfile::RenewableEnergy.dist_interval(),
                min_season: 2,
                ..StpmConfig::default()
            },
        });
    }
    cases
}

#[test]
#[cfg_attr(miri, ignore)] // interpreter-slow: many full mining runs
fn streamed_terminal_level_equals_the_materialised_level() {
    // Whether some run streamed at least one frequent pattern of length L.
    let mut terminal_output = [false; 3];
    for case in cases() {
        let dseq = case.dsyb.to_sequence_database(case.mapping_factor).unwrap();
        let input = MiningInput::new(&case.dsyb, &dseq, case.mapping_factor);
        for mode in PruningMode::all_modes() {
            for threads in [1, 3] {
                let mine = |max_pattern_len: usize| {
                    let config = StpmConfig {
                        max_pattern_len,
                        ..case.config.clone()
                    }
                    .with_pruning(mode)
                    .with_threads(threads);
                    StpmMiner.mine_with(&input, &config).unwrap().into_report()
                };
                let mut longer = mine(2);
                for (slot, len) in (2..=4).enumerate() {
                    let streamed = longer;
                    longer = mine(len + 1);
                    let context = format!("{}, L = {len}, {mode:?}, {threads} threads", case.name);
                    let cut: Vec<&MinedPattern> = longer
                        .patterns()
                        .iter()
                        .filter(|p| p.pattern().len() <= len)
                        .collect();
                    let expected: Vec<&MinedPattern> = streamed.patterns().iter().collect();
                    assert_eq!(cut, expected, "patterns diverged: {context}");
                    assert_eq!(longer.events(), streamed.events(), "{context}");
                    let without_footprint = |report: &MiningReport| {
                        report
                            .stats()
                            .levels
                            .iter()
                            .filter(|level| level.k <= len)
                            .map(|level| {
                                let mut level = *level;
                                level.footprint_bytes = 0;
                                level
                            })
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(
                        without_footprint(&longer),
                        without_footprint(&streamed),
                        "level stats diverged: {context}"
                    );
                    terminal_output[slot] |= !streamed.patterns_of_len(len).is_empty();
                }
            }
        }
    }
    assert_eq!(
        terminal_output, [true; 3],
        "every L must stream frequent patterns in some case"
    );
}
