//! Golden bytes of the durable formats: the exact bytes of a miner
//! snapshot, a pipeline snapshot and a write-ahead log, pinned as an FNV-1a
//! digest plus length.
//!
//! `snapshot_format.lock` pins only the magic, version and tag constants,
//! and a round-trip test passes for any self-consistent framing. These
//! digests fail on any change to the bytes themselves — field order, length
//! prefixes, CRC placement, section nesting — so a refactor of the encoders
//! must reproduce the frozen format exactly. A deliberate format change
//! bumps `SNAPSHOT_VERSION`/`WAL_VERSION` and re-pins these values.

use freqstpfts::datagen::SeededRng;
use freqstpfts::prelude::*;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_golden(what: &str, bytes: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (bytes.len(), fnv1a(bytes)),
        (len, digest),
        "{what}: the encoded bytes changed (got length {}, digest {:#018x})",
        bytes.len(),
        fnv1a(bytes)
    );
}

/// The paper's running example (Table II): five series, 14 granules of 3
/// instants.
fn paper_dseq() -> SequenceDatabase {
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
    SymbolicDatabase::new(series)
        .unwrap()
        .to_sequence_database(3)
        .unwrap()
}

fn paper_config() -> StpmConfig {
    StpmConfig {
        max_period: Threshold::Absolute(2),
        min_density: Threshold::Absolute(2),
        dist_interval: (3, 10),
        min_season: 2,
        max_pattern_len: 3,
        ..StpmConfig::default()
    }
}

#[test]
fn miner_snapshot_of_the_paper_example_is_frozen() {
    let dseq = paper_dseq();
    let mut miner = StreamingMiner::new(&paper_config(), dseq.registry()).unwrap();
    miner.append_batch(&dseq.sequences()[..5]).unwrap();
    miner.append_batch(&dseq.sequences()[5..]).unwrap();
    let mut bytes = Vec::new();
    miner.snapshot(&mut bytes).unwrap();
    assert_golden(
        "paper-example miner snapshot",
        &bytes,
        44_726,
        0x3e03_5e44_b3d9_7b04,
    );
}

/// Three seeded on/off series with a weekly-ish season plus noise.
fn seeded_feed(samples: usize) -> Vec<TimeSeries> {
    let mut rng = SeededRng::seed_from_u64(20_230_403);
    ["Cooker", "Dishes", "Heater"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let values = (0..samples)
                .map(|t| {
                    let seasonal = (t / (5 + i)) % 3 == 0;
                    if seasonal ^ (rng.next_below(9) == 0) {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            TimeSeries::new(*name, values)
        })
        .collect()
}

#[test]
#[cfg_attr(miri, ignore)] // filesystem: the WAL is a real file
fn pipeline_snapshot_and_wal_of_a_seeded_feed_are_frozen() {
    let dir = std::env::temp_dir().join(format!("stpm_golden_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("feed.wal");

    let mut pipeline = Pipeline::builder()
        .symbolizer(ThresholdSymbolizer::binary(0.5, "Off", "On"))
        .mapping_factor(3)
        .thresholds(StpmConfig {
            max_period: Threshold::Absolute(3),
            min_density: Threshold::Absolute(2),
            dist_interval: (2, 40),
            min_season: 1,
            max_pattern_len: 3,
            ..StpmConfig::default()
        })
        .into_streaming();
    pipeline.attach_wal(&wal).unwrap();
    // Uneven batch sizes, so some appends leave instants pending and the
    // last one ends mid-granule.
    let feed = seeded_feed(200);
    let mut from = 0;
    for step in [7, 1, 12, 30, 5, 44, 2, 60, 38] {
        let to = from + step;
        let batch: Vec<TimeSeries> = feed
            .iter()
            .map(|s| TimeSeries::new(s.name(), s.values()[from..to].to_vec()))
            .collect();
        pipeline.append(&batch).unwrap();
        from = to;
    }
    assert_eq!(from, 199);
    assert_eq!(pipeline.pending_instants(), 1);

    let mut snapshot = Vec::new();
    pipeline.snapshot_to_writer(&mut snapshot).unwrap();
    let wal_bytes = std::fs::read(&wal).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_golden(
        "seeded-feed pipeline snapshot",
        &snapshot,
        30_225,
        0x0bdc_24b9_9437_2b0e,
    );
    assert_golden("seeded-feed WAL", &wal_bytes, 2_367, 0x1842_5784_5461_b42f);
}
