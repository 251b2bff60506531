//! Incremental (streaming) seasonal temporal pattern mining: absorb appended
//! granules in time proportional to the delta, not the history.
//!
//! # Why appends are local
//!
//! Every structure the batch miner derives is *granule-local*: an event
//! instance lives inside one granule, a pattern occurrence binds instances of
//! one granule, and a relation verdict compares two intervals of one granule.
//! Appending granules therefore only ever *appends* to the derived state —
//! support sets grow at the tail, never in the middle — and the entire
//! history-dependent part of the algorithm (candidate gating, season
//! extraction, frequency checks) is a pure function of the accumulated
//! supports. [`StreamingMiner`] exploits this split:
//!
//! * **Absorb** ([`StreamingMiner::append_batch`]): each new granule is mined
//!   in isolation — level-2 instance pairs are classified into a per-granule
//!   verdict block table, k ≥ 3 patterns are grown from the granule's own
//!   (k−1)-bindings via verdict byte loads — and the resulting per-granule
//!   pattern occurrences are appended to persistent interned pattern stores.
//!   Bindings and verdicts are *dropped* once the granule is processed:
//!   unlike a batch run, the persistent state holds no instance pool at all.
//! * **Emit** ([`StreamingMiner::checkpoint`]): the frequency gate and season
//!   materialisation run over the accumulated supports. Each event and
//!   pattern carries a [`SeasonTracker`] — the season walker's state made
//!   persistent — so the `minSeason` check is O(1) per candidate and seasons
//!   are materialised only for survivors
//!   ([`Seasons`](crate::season::Seasons) spans are *extended at the tail*,
//!   never rebuilt).
//!
//! # Exactness
//!
//! The absorbed state is the *unpruned* candidate universe (the batch miner's
//! `NoPrune` mode); since the batch prunings are exact (they shrink the
//! search space, never the output), filtering the accumulated supports at a
//! checkpoint yields **exactly** the frequent seasonal events and patterns a
//! batch re-mine of the same prefix reports — including fractional
//! thresholds, which are re-resolved against the grown granule count on every
//! append (a resolution change replays the affected trackers; the stored
//! supports make that exact too). The only requirement is that granules
//! arrive in order and are immutable once absorbed.
//!
//! # Determinism
//!
//! Granules are independent, so an appended batch can be mined on
//! `threads > 1` workers; the per-granule harvests are merged back in granule
//! order, which makes the parallel state — and therefore every later
//! checkpoint — byte-identical to the sequential one.
//!
//! # Durability
//!
//! The persistent state is a closed set of plain values — supports, interned
//! pattern keys, tracker loop states — with no instance pool, binding pool or
//! verdict table, so it serializes compactly. The [`snapshot`](crate::snapshot)
//! subsystem persists it behind [`StreamingMiner::snapshot`] /
//! [`StreamingMiner::restore`]; a restored miner is indistinguishable from
//! one that never left memory (the equivalence is property-tested at every
//! checkpoint), and [`StreamingMiner::pending_granules`] /
//! [`StreamingMiner::checkpoint_meta`] expose how much un-snapshotted state a
//! crash would lose.

use crate::config::{ResolvedConfig, StpmConfig};
use crate::engine::{phases, EngineReport, PhaseTiming, PruningSummary};
use crate::error::{Error, Result};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::hlh::verdict_any;
use crate::miner::balanced_ranges;
use crate::pattern::{decode_pattern_key, encode_label, encode_triple, RelationTriple};
use crate::relation::{
    chronological_order, classify_relation, decode_verdict, encode_verdict, VERDICT_NONE,
};
use crate::report::{LevelStats, MinedEvent, MinedPattern, MiningReport, MiningStats};
use crate::season::SeasonTracker;
use crate::support::SupportSet;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use stpm_timeseries::{
    EventInstance, EventLabel, EventRegistry, GranulePos, SequenceDatabase, TemporalSequence,
};

/// Display name the streaming engine reports.
pub const STREAMING_ENGINE_NAME: &str = "S-STPM";

/// Per-event persistent state: the accumulated support set plus the
/// incremental season-walker state over it. Crate-visible so the
/// [`snapshot`](crate::snapshot) subsystem can serialize it.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamEventEntry {
    pub(crate) support: SupportSet,
    pub(crate) tracker: SeasonTracker,
}

/// Per-pattern persistent state. The pattern itself is stored exactly once
/// (decoded from its interning key when the key is first seen); bindings are
/// *not* retained (they are only needed while the granule that produced them
/// is being extended).
#[derive(Debug, Clone)]
pub(crate) struct StreamPatternEntry {
    pub(crate) pattern: crate::pattern::TemporalPattern,
    pub(crate) support: SupportSet,
    pub(crate) tracker: SeasonTracker,
}

/// One persistent pattern level (k ≥ 2): an interned pattern arena plus the
/// distinct event groups seen, for reporting parity with the batch stats.
#[derive(Debug, Clone)]
pub(crate) struct StreamLevel {
    pub(crate) k: usize,
    pub(crate) index: FxHashMap<Box<[u64]>, u32>,
    pub(crate) entries: Vec<StreamPatternEntry>,
    /// Distinct event groups (packed label prefixes) with ≥ 1 pattern.
    pub(crate) groups: FxHashSet<Box<[u64]>>,
}

impl StreamLevel {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            index: FxHashMap::default(),
            entries: Vec::new(),
            groups: FxHashSet::default(),
        }
    }

    /// Approximate heap footprint in bytes (element counts only, so parallel
    /// and sequential states report identical numbers).
    fn footprint_bytes(&self) -> usize {
        let entry_bytes: usize = self
            .entries
            .iter()
            .map(|e| {
                e.support.len() * std::mem::size_of::<GranulePos>()
                    + std::mem::size_of_val(e.pattern.events())
                    + e.pattern.triples().len() * 4
                    + e.tracker.footprint_bytes()
            })
            .sum();
        let index_bytes: usize = self
            .index
            .keys() // lint:allow(determinism): commutative sum, order-insensitive
            .chain(self.groups.iter()) // lint:allow(determinism): same commutative sum
            .map(|key| key.len() * std::mem::size_of::<u64>())
            .sum();
        entry_bytes + index_bytes
    }
}

/// Everything one granule contributes to the persistent state: the distinct
/// event labels occurring in it, and — per level, in discovery order — the
/// interning keys of the distinct patterns occurring in it (a key fully
/// encodes its pattern; the persistent store decodes it only when the key is
/// globally new). Mining a granule is a pure function of the granule's
/// sequence and the relation parameters, which is what makes parallel
/// appends deterministic.
#[derive(Debug)]
struct GranuleHarvest {
    granule: GranulePos,
    labels: Vec<EventLabel>,
    /// `levels[i]` holds the interning keys of the granule's distinct
    /// (k = i + 2)-patterns, in discovery order.
    levels: Vec<Vec<Vec<u64>>>,
}

/// One granule-local pattern under construction: its interning key (which
/// fully encodes the pattern) plus the state the next level consumes — the
/// positions of its events in the granule's label list and its instance
/// bindings.
struct LocalPattern {
    key: Vec<u64>,
    /// Position of each pattern event in the granule's sorted label list.
    events_pos: Vec<u32>,
    /// Flat instance-index bindings, `k` entries per binding (indices into
    /// the granule's per-label instance lists, aligned with `events_pos`).
    bindings: Vec<u32>,
}

/// One granule-local level: interned patterns in discovery order. Keys are
/// looked up by slice (no allocation on a hit) and owned only on first
/// sight — the same interning discipline as the batch `HLH_k`.
#[derive(Default)]
struct LocalLevel {
    index: FxHashMap<Box<[u64]>, u32>,
    entries: Vec<LocalPattern>,
}

impl LocalLevel {
    /// Interns a pattern occurrence's key, creating the entry on first
    /// sight, and returns the entry index.
    fn intern(&mut self, key: &[u64], make_events_pos: impl FnOnce() -> Vec<u32>) -> usize {
        if let Some(&idx) = self.index.get(key) {
            return idx as usize;
        }
        let idx = self.entries.len();
        self.index
            .insert(key.into(), u32::try_from(idx).expect("patterns fit u32"));
        self.entries.push(LocalPattern {
            key: key.to_vec(),
            events_pos: make_events_pos(),
            bindings: Vec::new(),
        });
        idx
    }
}

/// Mines one granule in isolation, reproducing exactly the occurrences the
/// batch miner would derive for it (with pruning disabled): level-2 instance
/// pairs are classified once into per-pair verdict blocks, and k ≥ 3 patterns
/// are grown from the granule's own (k−1)-bindings via verdict byte loads —
/// the streaming counterpart of the batch verdict-table reuse. A
/// granule-local relation map (the analogue of the batch adjacency matrix)
/// skips (pattern, extension-event) combinations no instance pair of this
/// granule can satisfy, before any binding is enumerated.
fn mine_granule(seq: &TemporalSequence, config: &ResolvedConfig) -> GranuleHarvest {
    // Group the granule's instances per label, labels sorted canonically.
    let mut per_label: BTreeMap<EventLabel, Vec<EventInstance>> = BTreeMap::new();
    for instance in seq.instances() {
        per_label.entry(instance.label).or_default().push(*instance);
    }
    let labels: Vec<EventLabel> = per_label.keys().copied().collect();
    let insts: Vec<Vec<EventInstance>> = per_label.into_values().collect();
    let n = labels.len();
    let max_len = config.max_pattern_len;
    let mut harvest_levels: Vec<Vec<Vec<u64>>> = Vec::new();
    if max_len < 2 || n < 2 {
        return GranuleHarvest {
            granule: seq.granule(),
            labels,
            levels: harvest_levels,
        };
    }

    // ---- level 2: classify every instance cross-product cell ----
    // blocks[i * n + j] (i < j) holds the row-major verdict bytes of the
    // (labels[i], labels[j]) cross product, and related[i * n + j] whether
    // any cell classified; only kept when a k >= 3 level will read them.
    let record_verdicts = max_len >= 3;
    let mut blocks: Vec<Vec<u8>> = if record_verdicts {
        (0..n * n).map(|_| Vec::new()).collect()
    } else {
        Vec::new()
    };
    let mut related = vec![false; if record_verdicts { n * n } else { 0 }];
    let mut locals: Vec<LocalLevel> = (2..=max_len).map(|_| LocalLevel::default()).collect();
    for i in 0..n {
        for j in i + 1..n {
            let (rows, cols) = (&insts[i], &insts[j]);
            let mut block = Vec::new();
            if record_verdicts {
                block.reserve(rows.len() * cols.len());
            }
            for (ra, a) in rows.iter().enumerate() {
                for (rb, b) in cols.iter().enumerate() {
                    let in_order = chronological_order(&a.interval, &b.interval, 0u8, 1u8);
                    let (first, second) = if in_order { (a, b) } else { (b, a) };
                    let verdict = classify_relation(
                        &first.interval,
                        &second.interval,
                        config.epsilon,
                        config.min_overlap,
                    );
                    if record_verdicts {
                        block.push(
                            verdict.map_or(VERDICT_NONE, |kind| encode_verdict(kind, !in_order)),
                        );
                    }
                    let Some(kind) = verdict else {
                        continue;
                    };
                    let triple = if in_order {
                        RelationTriple::new(kind, 0, 1)
                    } else {
                        RelationTriple::new(kind, 1, 0)
                    };
                    let key = [
                        encode_label(labels[i]),
                        encode_label(labels[j]),
                        encode_triple(triple),
                    ];
                    let (li, lj) = (i as u32, j as u32);
                    let idx = locals[0].intern(&key, || vec![li, lj]);
                    locals[0].entries[idx]
                        .bindings
                        .extend([ra as u32, rb as u32]);
                }
            }
            if record_verdicts {
                // The granule-local adjacency bit is one byte scan of the
                // finished block, replacing the per-cell flag accumulation.
                related[i * n + j] = verdict_any(&block);
                blocks[i * n + j] = block;
            }
        }
    }

    // ---- levels k >= 3: extend the granule's own (k-1)-bindings ----
    // Per-(entry, E_k) scratch: the interning key is built once as a shared
    // prefix (events + E_k + base triples) and only the new-triple words
    // vary per occurrence — the batch miner's layout exactly.
    let mut key_scratch: Vec<u64> = Vec::new();
    for k in 3..=max_len {
        let (done, todo) = locals.split_at_mut(k - 2);
        let prev = &done[k - 3];
        let cur = &mut todo[0];
        let new_index = u8::try_from(k - 1).expect("pattern length fits u8");
        for entry in &prev.entries {
            let last_pos = *entry.events_pos.last().expect("patterns are non-empty") as usize;
            'extension: for j in last_pos + 1..n {
                // Granule-local transitivity pruning: every member must
                // relate to E_k through *some* instance pair of this granule,
                // or no binding can extend.
                for &pos in &entry.events_pos {
                    if !related[pos as usize * n + j] {
                        continue 'extension;
                    }
                }
                let ek = labels[j];
                let ek_insts = &insts[j];
                let cols = ek_insts.len();
                // Shared key prefix for every occurrence of this (entry, E_k)
                // combination.
                key_scratch.clear();
                key_scratch.extend_from_slice(&entry.key[..k - 1]);
                key_scratch.push(encode_label(ek));
                key_scratch.extend_from_slice(&entry.key[k - 1..]);
                let base_len = key_scratch.len();
                for binding in entry.bindings.chunks_exact(k - 1) {
                    'instances: for col in 0..cols {
                        key_scratch.truncate(base_len);
                        for (idx, (&pos, &row)) in
                            entry.events_pos.iter().zip(binding.iter()).enumerate()
                        {
                            let block = &blocks[pos as usize * n + j];
                            let verdict = block[row as usize * cols + col];
                            match decode_verdict(verdict) {
                                Some((kind, swapped)) => {
                                    let idx_u8 = u8::try_from(idx).expect("pattern length fits u8");
                                    let triple = if swapped {
                                        RelationTriple::new(kind, new_index, idx_u8)
                                    } else {
                                        RelationTriple::new(kind, idx_u8, new_index)
                                    };
                                    key_scratch.push(encode_triple(triple));
                                }
                                None => continue 'instances,
                            }
                        }
                        let events_pos = &entry.events_pos;
                        let idx = cur.intern(&key_scratch, || {
                            let mut pos = events_pos.clone();
                            pos.push(j as u32);
                            pos
                        });
                        let target = &mut cur.entries[idx].bindings;
                        target.extend_from_slice(binding);
                        target.push(col as u32);
                    }
                }
            }
        }
    }

    for local in locals {
        harvest_levels.push(local.entries.into_iter().map(|e| e.key).collect());
    }
    GranuleHarvest {
        granule: seq.granule(),
        labels,
        levels: harvest_levels,
    }
}

/// The incremental mining engine: owns the persistent per-event and
/// per-pattern state and absorbs appended granule batches.
///
/// ```
/// use stpm_core::{StpmConfig, StreamingMiner, StpmMiner, Threshold};
/// use stpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries};
///
/// let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
/// let c = SymbolicSeries::from_labels(
///     "C", &["1","1","0", "1","0","0", "1","1","0", "0","0","0"], alphabet.clone()).unwrap();
/// let d = SymbolicSeries::from_labels(
///     "D", &["1","0","0", "1","0","0", "1","1","0", "1","1","0"], alphabet).unwrap();
/// let dsyb = SymbolicDatabase::new(vec![c, d]).unwrap();
/// let dseq = dsyb.to_sequence_database(3).unwrap();
///
/// let config = StpmConfig {
///     max_period: Threshold::Absolute(2),
///     min_density: Threshold::Absolute(2),
///     dist_interval: (1, 10),
///     min_season: 1,
///     ..StpmConfig::default()
/// };
/// let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
/// // Absorb the first two granules, then the rest; every checkpoint is
/// // exact for the prefix absorbed so far.
/// miner.append_batch(&dseq.sequences()[..2]).unwrap();
/// let report = miner.append(&dseq.sequences()[2..]).unwrap();
/// let batch = StpmMiner::mine_sequences(&dseq, &config).unwrap();
/// assert_eq!(report.total_patterns(), batch.total_patterns());
/// ```
#[derive(Debug, Clone)]
pub struct StreamingMiner {
    pub(crate) config: StpmConfig,
    pub(crate) registry: EventRegistry,
    /// The configuration resolved against the current granule count
    /// (`None` until the first non-empty append).
    pub(crate) resolved: Option<ResolvedConfig>,
    pub(crate) num_granules: u64,
    pub(crate) events: FxHashMap<EventLabel, StreamEventEntry>,
    /// One persistent level per k in `2..=max_pattern_len`.
    pub(crate) levels: Vec<StreamLevel>,
    /// Cumulative wall-clock time spent absorbing granules.
    pub(crate) append_time: Duration,
    /// Number of `append*` calls absorbed (for reporting).
    pub(crate) batches_absorbed: u64,
    /// Id of the most recent durable snapshot taken of this state (0 = no
    /// snapshot yet). Bumped by [`StreamingMiner::snapshot`] and persisted,
    /// so a restored miner continues the id sequence.
    pub(crate) checkpoint_id: u64,
    /// Granule count at the most recent snapshot — the baseline
    /// [`StreamingMiner::pending_granules`] measures against.
    pub(crate) granules_at_snapshot: u64,
}

impl StreamingMiner {
    /// Creates an empty streaming miner for `config`, reporting patterns
    /// against `registry` (the registry of the database the granules come
    /// from).
    ///
    /// # Errors
    /// Propagates configuration-validation errors.
    pub fn new(config: &StpmConfig, registry: &EventRegistry) -> Result<Self> {
        // Validate the non-size-dependent parameters now; fractional
        // thresholds are re-resolved on every append.
        config.resolve(1)?;
        let levels = (2..=config.max_pattern_len).map(StreamLevel::new).collect();
        Ok(Self {
            config: config.clone(),
            registry: registry.clone(),
            resolved: None,
            num_granules: 0,
            events: FxHashMap::default(),
            levels,
            append_time: Duration::ZERO,
            batches_absorbed: 0,
            checkpoint_id: 0,
            granules_at_snapshot: 0,
        })
    }

    /// Number of granules absorbed so far.
    #[must_use]
    pub fn num_granules(&self) -> u64 {
        self.num_granules
    }

    /// Total number of distinct patterns interned across every level (the
    /// size of the persistent candidate universe, frequent or not).
    #[must_use]
    pub fn patterns_interned(&self) -> u64 {
        self.levels.iter().map(|l| l.entries.len() as u64).sum()
    }

    /// Granules absorbed since the most recent [`snapshot`] — the state a
    /// crash would lose without a write-ahead log.
    ///
    /// [`snapshot`]: StreamingMiner::snapshot
    #[must_use]
    pub fn pending_granules(&self) -> u64 {
        self.num_granules - self.granules_at_snapshot
    }

    /// The registry the reports render against.
    #[must_use]
    pub fn registry(&self) -> &EventRegistry {
        &self.registry
    }

    /// Approximate heap footprint of the persistent state, in bytes. Note
    /// that — unlike a batch run — no instance pool, binding pool or verdict
    /// table is retained across appends.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        let event_bytes: usize = self
            .events
            .values() // lint:allow(determinism): commutative sum, order-insensitive
            .map(|e| {
                std::mem::size_of::<EventLabel>()
                    + e.support.len() * std::mem::size_of::<GranulePos>()
                    + e.tracker.footprint_bytes()
            })
            .sum();
        event_bytes
            + self
                .levels
                .iter()
                .map(StreamLevel::footprint_bytes)
                .sum::<usize>()
    }

    /// Re-resolves the configuration against the post-append granule count.
    /// When the resolved seasonality thresholds changed (fractional
    /// thresholds crossing a granule-count boundary), every tracker is
    /// replayed from its stored support under the new thresholds — the
    /// exactness fallback; with absolute thresholds this never triggers.
    fn sync_resolved(&mut self, new_total: u64) -> Result<ResolvedConfig> {
        let resolved = self.config.resolve(new_total)?;
        if let Some(old) = self.resolved {
            let seasonal_changed = old.max_period != resolved.max_period
                || old.min_density != resolved.min_density
                || old.dist_min != resolved.dist_min
                || old.dist_max != resolved.dist_max;
            if seasonal_changed {
                // lint:allow(determinism): per-entry rebuild is independent of visit order
                for entry in self.events.values_mut() {
                    entry.tracker = SeasonTracker::rebuild(&entry.support, &resolved);
                }
                for level in &mut self.levels {
                    for entry in &mut level.entries {
                        entry.tracker = SeasonTracker::rebuild(&entry.support, &resolved);
                    }
                }
            }
        }
        self.resolved = Some(resolved);
        Ok(resolved)
    }

    /// Folds one granule's harvest into the persistent state. Harvests must
    /// arrive in granule order; within a harvest, patterns are applied in
    /// discovery order — this is what makes parallel appends byte-identical
    /// to sequential ones.
    // lint: hot-path
    fn apply_harvest(&mut self, harvest: GranuleHarvest, config: &ResolvedConfig) {
        let granule = harvest.granule;
        for label in harvest.labels {
            let entry = self.events.entry(label).or_default();
            let idx = entry.support.len();
            entry.support.push(granule);
            entry.tracker.push(idx, granule, config);
        }
        for (level, mined) in self.levels.iter_mut().zip(harvest.levels) {
            for key in mined {
                let entry = match level.index.get(key.as_slice()) {
                    Some(&idx) => &mut level.entries[idx as usize],
                    None => {
                        let idx = u32::try_from(level.entries.len()).expect("patterns fit u32");
                        // Allocate the group key only for genuinely new
                        // groups (the lookup borrows the slice).
                        if !level.groups.contains(&key[..level.k]) {
                            level.groups.insert(key[..level.k].into());
                        }
                        let pattern = decode_pattern_key(level.k, &key);
                        level.index.insert(key.into_boxed_slice(), idx);
                        level.entries.push(StreamPatternEntry {
                            pattern,
                            // lint:allow(hot-path-alloc): first-occurrence arm
                            support: Vec::new(),
                            tracker: SeasonTracker::default(),
                        });
                        &mut level.entries[idx as usize]
                    }
                };
                let idx = entry.support.len();
                entry.support.push(granule);
                entry.tracker.push(idx, granule, config);
            }
        }
    }

    /// Absorbs a batch of appended granules without emitting a report.
    /// Sequences must continue the absorbed prefix: granule positions
    /// `num_granules() + 1, num_granules() + 2, …` in order. An empty batch
    /// is a no-op.
    ///
    /// # Errors
    /// [`Error::StreamAppend`] on a granule-continuity violation;
    /// configuration re-resolution errors.
    pub fn append_batch(&mut self, batch: &[TemporalSequence]) -> Result<()> {
        for (offset, seq) in batch.iter().enumerate() {
            let expected = self.num_granules + offset as u64 + 1;
            if seq.granule() != expected {
                return Err(Error::StreamAppend {
                    reason: format!(
                        "expected granule {expected}, got {} — batches must append \
                         consecutive granules",
                        seq.granule()
                    ),
                });
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        let resolved = self.sync_resolved(self.num_granules + batch.len() as u64)?;
        let harvests = Self::mine_batch(batch, &resolved);
        for harvest in harvests {
            self.apply_harvest(harvest, &resolved);
        }
        self.num_granules += batch.len() as u64;
        self.batches_absorbed += 1;
        self.append_time += start.elapsed();
        crate::invariants::debug_validate!(self.validate());
        Ok(())
    }

    /// Mines every granule of the batch, sharding across the configured
    /// worker threads (granules are independent; harvests are returned in
    /// granule order regardless of the thread count).
    fn mine_batch(batch: &[TemporalSequence], config: &ResolvedConfig) -> Vec<GranuleHarvest> {
        let threads = config.threads.min(batch.len()).max(1);
        if threads == 1 {
            return batch.iter().map(|seq| mine_granule(seq, config)).collect();
        }
        // A granule's mining cost is dominated by its instance cross
        // products — quadratic in the instance count.
        let costs: Vec<u64> = batch
            .iter()
            .map(|seq| 1 + (seq.len() as u64).pow(2))
            .collect();
        let ranges = balanced_ranges(&costs, threads);
        let chunks: Vec<Vec<GranuleHarvest>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let slice = &batch[range];
                    scope.spawn(move || {
                        slice
                            .iter()
                            .map(|seq| mine_granule(seq, config))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("granule mining shard panicked"))
                .collect()
        });
        chunks.into_iter().flatten().collect()
    }

    /// Absorbs the granules of `dseq` beyond the already-absorbed prefix — a
    /// convenience for callers that maintain a growing [`SequenceDatabase`].
    ///
    /// # Errors
    /// [`Error::StreamAppend`] when `dseq` is shorter than the absorbed
    /// prefix; otherwise as [`StreamingMiner::append_batch`].
    pub fn absorb(&mut self, dseq: &SequenceDatabase) -> Result<()> {
        let absorbed = usize::try_from(self.num_granules).expect("granule count fits usize");
        if dseq.sequences().len() < absorbed {
            return Err(Error::StreamAppend {
                reason: format!(
                    "database holds {} granules but {absorbed} were already absorbed",
                    dseq.sequences().len()
                ),
            });
        }
        self.append_batch(&dseq.sequences()[absorbed..])
    }

    /// Absorbs a batch and emits a checkpoint report — the one-call streaming
    /// step.
    ///
    /// # Errors
    /// As [`StreamingMiner::append_batch`] and
    /// [`StreamingMiner::checkpoint`].
    pub fn append(&mut self, batch: &[TemporalSequence]) -> Result<EngineReport> {
        self.append_batch(batch)?;
        self.checkpoint()
    }

    /// Emits the frequent seasonal events and patterns of the absorbed
    /// prefix — exactly what a batch re-mine of the same prefix reports
    /// (patterns, supports, seasons and counts; the order within a level is
    /// first-occurrence order, which may differ from the batch engine's).
    ///
    /// # Errors
    /// [`Error::EmptyDatabase`] when no granule has been absorbed yet.
    pub fn checkpoint(&self) -> Result<EngineReport> {
        crate::invariants::debug_validate!(self.validate());
        let resolved = self.resolved.ok_or(Error::EmptyDatabase)?;
        let emit_start = Instant::now();

        // lint:allow(determinism): collected labels are sorted on the next line
        let mut labels: Vec<EventLabel> = self.events.keys().copied().collect();
        labels.sort_unstable();
        let mut candidate_events = 0usize;
        let mut events_out = Vec::new();
        for &label in &labels {
            let entry = &self.events[&label];
            if resolved.is_candidate(entry.support.len()) {
                candidate_events += 1;
            }
            if entry.tracker.is_frequent(entry.support.len(), &resolved) {
                events_out.push(MinedEvent {
                    label,
                    support: entry.support.clone(),
                    seasons: entry.tracker.snapshot(&entry.support, &resolved),
                });
            }
        }

        let mut patterns_out = Vec::new();
        let mut level_stats = Vec::new();
        for level in &self.levels {
            let mut frequent = 0usize;
            for entry in &level.entries {
                if entry.tracker.is_frequent(entry.support.len(), &resolved) {
                    frequent += 1;
                    patterns_out.push(MinedPattern::new(
                        entry.pattern.clone(),
                        entry.support.clone(),
                        entry.tracker.snapshot(&entry.support, &resolved),
                    ));
                }
            }
            level_stats.push(LevelStats {
                k: level.k,
                candidate_groups: level.groups.len(),
                candidate_patterns: level.entries.len(),
                frequent_patterns: frequent,
                footprint_bytes: level.footprint_bytes(),
                classifier_calls_saved: 0,
                adjacency_pruned_candidates: 0,
            });
        }

        let footprint = self.footprint_bytes();
        let emit_time = emit_start.elapsed();
        let stats = MiningStats {
            num_granules: self.num_granules,
            num_events: self.events.len(),
            candidate_events,
            frequent_events: events_out.len(),
            levels: level_stats,
            total_time: self.append_time + emit_time,
            single_event_time: Duration::ZERO,
            pattern_time: self.append_time,
            peak_footprint_bytes: footprint,
        };
        let report = MiningReport::new(events_out, patterns_out, stats);
        let total_series = self.registry.num_series();
        let pruning = PruningSummary {
            kept_series: (0..total_series)
                .map(|i| stpm_timeseries::SeriesId(u32::try_from(i).expect("series fits u32")))
                .collect(),
            pruned_series: Vec::new(),
            total_series,
            pruned_events: 0,
            total_events: self.registry.num_events(),
            candidate_itemsets: 0,
        };
        Ok(EngineReport::new(
            STREAMING_ENGINE_NAME,
            report,
            self.registry.clone(),
            vec![
                PhaseTiming::new(phases::APPEND, self.append_time),
                PhaseTiming::new(phases::EMIT, emit_time),
            ],
            pruning,
            footprint,
        ))
    }
}

// ---------------------------------------------------------------------------
// Structural validation (see the `invariants` module).
// ---------------------------------------------------------------------------

use crate::invariants::{invariant, InvariantViolation};
use crate::pattern::encode_pattern_key;

impl StreamingMiner {
    /// Validates the persistent streaming state: every support set ascends
    /// strictly and stays within the absorbed granule range, every level's
    /// pattern index is a permutation of its arena with keys that re-encode
    /// their patterns, and every incremental [`SeasonTracker`] is
    /// bit-identical to a fresh replay of its accumulated support.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found, if any.
    pub fn validate(&self) -> std::result::Result<(), InvariantViolation> {
        const S: &str = "StreamingMiner";
        invariant!(
            S,
            self.resolved.is_some() || self.num_granules == 0,
            "absorbed {} granules without a resolved configuration",
            self.num_granules
        );
        // lint:allow(determinism): validation is an order-insensitive conjunction
        for (&label, entry) in &self.events {
            self.validate_candidate(
                S,
                &format!("event {label:?}"),
                &entry.support,
                &entry.tracker,
            )?;
        }
        for (idx, level) in self.levels.iter().enumerate() {
            let k = idx + 2;
            invariant!(S, level.k == k, "level slot {idx} holds k={}", level.k);
            invariant!(
                S,
                level.index.len() == level.entries.len(),
                "level k={k} index has {} keys for {} entries",
                level.index.len(),
                level.entries.len()
            );
            let mut seen = vec![false; level.entries.len()];
            for (key, &id) in &level.index {
                let Some(entry) = level.entries.get(id as usize) else {
                    return Err(InvariantViolation::new(
                        S,
                        format!("level k={k} pattern id {id} out of range"),
                    ));
                };
                invariant!(
                    S,
                    !std::mem::replace(&mut seen[id as usize], true),
                    "level k={k} pattern id {id} indexed twice"
                );
                invariant!(
                    S,
                    encode_pattern_key(&entry.pattern) == **key,
                    "level k={k} index key does not re-encode pattern {id}"
                );
            }
            for group in &level.groups {
                invariant!(
                    S,
                    group.len() == k,
                    "level k={k} group key has {} packed labels",
                    group.len()
                );
            }
            for (id, entry) in level.entries.iter().enumerate() {
                self.validate_candidate(
                    S,
                    &format!("level k={k} pattern {id}"),
                    &entry.support,
                    &entry.tracker,
                )?;
            }
        }
        Ok(())
    }

    fn validate_candidate(
        &self,
        structure: &'static str,
        what: &str,
        support: &[GranulePos],
        tracker: &SeasonTracker,
    ) -> std::result::Result<(), InvariantViolation> {
        invariant!(
            structure,
            support.windows(2).all(|w| w[0] < w[1]),
            "support of {what} is not strictly ascending"
        );
        invariant!(
            structure,
            support.last().is_none_or(|&g| g <= self.num_granules),
            "support of {what} reaches past the absorbed prefix"
        );
        if let Some(resolved) = &self.resolved {
            tracker.validate(support, resolved).map_err(|violation| {
                InvariantViolation::new(
                    structure,
                    format!("tracker of {what}: {}", violation.detail),
                )
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Threshold;
    use crate::miner::StpmMiner;
    use stpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries};

    /// The paper's running example (Table II), 14 granules of 3 instants.
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

    use crate::report::canonical_result_set as canonical;

    fn assert_matches_batch(dseq: &SequenceDatabase, config: &StpmConfig, prefix: usize) {
        let truncated = dseq.truncated(prefix);
        let batch = StpmMiner::mine_sequences(&truncated, config).unwrap();
        let mut miner = StreamingMiner::new(config, dseq.registry()).unwrap();
        miner.append_batch(&dseq.sequences()[..prefix]).unwrap();
        let report = miner.checkpoint().unwrap();
        assert_eq!(
            canonical(report.events(), report.patterns()),
            canonical(batch.events(), batch.patterns()),
            "prefix {prefix} diverged"
        );
    }

    #[test]
    fn single_append_matches_a_batch_mine() {
        let dseq = paper_dseq();
        for prefix in [1, 5, 9, 14] {
            assert_matches_batch(&dseq, &paper_config(), prefix);
        }
    }

    #[test]
    fn granule_by_granule_appends_match_batch_at_every_checkpoint() {
        let dseq = paper_dseq();
        let config = paper_config();
        let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
        for prefix in 1..=dseq.sequences().len() {
            let report = miner.append(&dseq.sequences()[prefix - 1..prefix]).unwrap();
            let batch = StpmMiner::mine_sequences(&dseq.truncated(prefix), &config).unwrap();
            assert_eq!(
                canonical(report.events(), report.patterns()),
                canonical(batch.events(), batch.patterns()),
                "checkpoint after granule {prefix} diverged"
            );
            assert_eq!(report.stats().num_granules, prefix as u64);
        }
    }

    #[test]
    fn empty_appends_are_noops_and_continuity_is_enforced() {
        let dseq = paper_dseq();
        let config = paper_config();
        let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
        assert!(miner.append_batch(&[]).is_ok());
        assert!(miner.checkpoint().is_err(), "no granule absorbed yet");
        miner.append_batch(&dseq.sequences()[..3]).unwrap();
        // Skipping a granule is rejected, and the state is untouched.
        let err = miner.append_batch(&dseq.sequences()[4..6]).unwrap_err();
        assert!(matches!(err, Error::StreamAppend { .. }));
        assert_eq!(miner.num_granules(), 3);
        // Absorb picks up exactly where the state left off.
        miner.absorb(&dseq).unwrap();
        assert_eq!(miner.num_granules(), 14);
        assert_matches_batch(&dseq, &config, 14);
    }

    #[test]
    fn parallel_appends_are_byte_identical_to_sequential() {
        let dseq = paper_dseq();
        let config = paper_config();
        let mut sequential = StreamingMiner::new(&config, dseq.registry()).unwrap();
        sequential.absorb(&dseq).unwrap();
        let reference = sequential.checkpoint().unwrap();
        for threads in [2, 4, 7] {
            let threaded_config = config.clone().with_threads(threads);
            let mut miner = StreamingMiner::new(&threaded_config, dseq.registry()).unwrap();
            miner.absorb(&dseq).unwrap();
            let report = miner.checkpoint().unwrap();
            assert_eq!(report.events(), reference.events());
            assert_eq!(report.patterns(), reference.patterns());
            assert_eq!(
                report.stats().levels,
                reference.stats().levels,
                "level stats diverged with {threads} threads"
            );
        }
    }

    #[test]
    fn fractional_thresholds_replay_trackers_and_stay_exact() {
        // Fraction thresholds resolve differently as the granule count grows;
        // the tracker replay keeps checkpoints exact anyway.
        let dseq = paper_dseq();
        let config = StpmConfig {
            max_period: Threshold::Fraction(0.15),
            min_density: Threshold::Fraction(0.15),
            dist_interval: (3, 10),
            min_season: 2,
            max_pattern_len: 3,
            ..StpmConfig::default()
        };
        let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
        for prefix in 1..=dseq.sequences().len() {
            miner
                .append_batch(&dseq.sequences()[prefix - 1..prefix])
                .unwrap();
            let report = miner.checkpoint().unwrap();
            let batch = StpmMiner::mine_sequences(&dseq.truncated(prefix), &config).unwrap();
            assert_eq!(
                canonical(report.events(), report.patterns()),
                canonical(batch.events(), batch.patterns()),
                "fractional checkpoint after granule {prefix} diverged"
            );
        }
    }

    #[test]
    fn max_pattern_len_one_streams_only_events() {
        let dseq = paper_dseq();
        let config = StpmConfig {
            max_pattern_len: 1,
            ..paper_config()
        };
        let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
        let report = miner.append(dseq.sequences()).unwrap();
        assert!(report.patterns().is_empty());
        assert!(!report.events().is_empty());
        assert!(report.stats().levels.is_empty());
    }

    #[test]
    fn report_metadata_is_populated() {
        let dseq = paper_dseq();
        let mut miner = StreamingMiner::new(&paper_config(), dseq.registry()).unwrap();
        let report = miner.append(dseq.sequences()).unwrap();
        assert_eq!(report.engine(), STREAMING_ENGINE_NAME);
        assert!(report.memory_bytes() > 0);
        assert_eq!(report.pruning().total_series, 5);
        assert_eq!(report.pruning().pruned_series.len(), 0);
        assert!(report.phase_time(phases::APPEND) <= report.total_time());
        assert!(report.stats().candidate_events > 0);
        assert!(!report.pattern_set().is_empty());
        assert_eq!(miner.registry().num_series(), 5);
        // Two checkpoints on unchanged state are identical (modulo timings).
        let again = miner.checkpoint().unwrap();
        assert_eq!(again.events(), report.events());
        assert_eq!(again.patterns(), report.patterns());
    }
}
