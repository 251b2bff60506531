//! The Seasonal Temporal Pattern Mining algorithm (E-STPM, Algorithm 1).
//!
//! Mining proceeds in two steps:
//!
//! * **Step 2.1 — seasonal single events.** One scan of `D_SEQ` builds
//!   `HLH_1`; events whose `maxSeason` reaches `minSeason` are *candidates*
//!   (Apriori-like pruning, Lemmas 1–2); candidates whose season count
//!   reaches `minSeason` are frequent seasonal events.
//! * **Step 2.2 — seasonal k-event patterns.** Candidate k-event groups are
//!   grown from `HLH_{k-1} × FilteredF_1`, where `FilteredF_1` keeps only the
//!   single events that participate in candidate (k-1)-patterns
//!   (transitivity pruning, Lemmas 3–4). Relations are verified on the
//!   instance bindings stored in `HLH_{k-1}`, candidate patterns are kept in
//!   `HLH_k`, and the frequent ones are reported. The last level is
//!   streamed instead of kept (see below).
//!
//! Both prunings can be disabled individually through
//! [`PruningMode`](crate::config::PruningMode) to reproduce the ablation
//! study of the paper (Figures 15, 16, 25, 26).
//!
//! # Parallelism and memory
//!
//! Level mining is embarrassingly parallel across candidate groups: each
//! level-2 event pair, and each (k-1)-group extension, is mined independently
//! of every other. When [`StpmConfig::threads`] (resolved into
//! [`ResolvedConfig::threads`]) is greater than one, the candidate space of
//! each level is split into contiguous shards mined on scoped worker threads;
//! the per-shard `HLH_k` structures are merged back in shard order
//! ([`HlhK::merge_shards`]), and the streamed terminal level's per-shard
//! output is concatenated in shard order, which makes the parallel output
//! *identical* — pattern order included — to the sequential one.
//!
//! Extension at level k only ever reads `HLH_2` (transitivity lookups) and
//! `HLH_{k-1}` (instance bindings), so those are the only levels kept alive:
//! every earlier level is dropped as soon as its successor exists. The last
//! level (`k == maxPatternLen`, k = 2 included) is never built at all: it is
//! mined one combination — a (k-1)-group × `E_k`, or a level-2 pair — at a
//! time into one reused per-combination structure, which is gated, emitted
//! and emptied as soon as the combination is done. This is exact and keeps
//! the output order, because every k-group comes from exactly one
//! combination (`E_k` is larger than the group's last member) and
//! combinations run in the order their patterns were first inserted.
//! [`MiningStats::peak_footprint_bytes`] reports the peak of the *live*
//! structures, not the historical sum of all levels; for the last level
//! that is the largest per-combination structure.
//!
//! # Level-2 reuse at k ≥ 3
//!
//! The k ≥ 3 loop never re-derives what level 2 already knows:
//!
//! * extension candidates of a (k-1)-group are enumerated from the bitwise
//!   AND of the members' [`RelationAdjacency`] rows (one pass instead of a
//!   full `FilteredF_1` scan with per-member `has_relation_between` probes);
//!   the skipped combinations are counted in
//!   [`LevelStats::adjacency_pruned_candidates`];
//! * relation verdicts between a binding member and an extension-event
//!   instance are looked up in the [`VerdictTable`](crate::hlh::VerdictTable)
//!   recorded while mining level 2 (counted in
//!   [`LevelStats::classifier_calls_saved`]); the closed-form classifier
//!   remains as the fallback for unrecorded pairs and as the debug-build
//!   cross-check;
//! * the last level of a run is streamed through a *terminal* structure
//!   ([`HlhK::new_terminal`]): nothing ever reads its bindings, so the
//!   binding pool — the bulk of a level's footprint — is never populated,
//!   and it holds one combination at a time, so the level's candidate
//!   patterns, hash index and group supports never pile up.
//!
//! # Batch vs streaming
//!
//! `StpmMiner` is the *batch* engine: one immutable database in, one report
//! out. Everything it derives is granule-local (an occurrence binds
//! instances of a single granule), which is what the incremental
//! [`StreamingMiner`](crate::streaming::StreamingMiner) exploits to absorb
//! appended granules without re-mining history: supports only ever grow at
//! the tail, and the season walk over them is resumable
//! ([`SeasonTracker`](crate::season::SeasonTracker)). The streaming engine's
//! checkpoints are exact w.r.t. a batch re-mine of the same prefix — the
//! batch miner is both the reference implementation and the
//! re-mine contender the streaming benchmarks compare against.

use crate::config::{ResolvedConfig, StpmConfig};
use crate::engine::{phases, EngineReport, MiningEngine, MiningInput, PhaseTiming, PruningSummary};
use crate::error::Result;
use crate::hlh::{
    EventEntry, GroupEntry, GroupId, Hlh1, HlhK, PairVerdicts, PatternEntry, RelationAdjacency,
};
use crate::pattern::{encode_label, encode_triple, RelationTriple, TemporalPattern};
use crate::relation::{
    chronological_order, classify_relation, decode_verdict, encode_verdict, VERDICT_NONE,
};
use crate::report::{LevelStats, MinedEvent, MinedPattern, MiningReport, MiningStats};
use crate::season::{find_seasons, support_is_frequent};
use crate::support::{
    intersect_into, intersect_positions_into, intersect_rows_into, iter_set_bits, SupportSet,
};
use std::ops::Range;
use std::time::Instant;
use stpm_timeseries::{EventInstance, EventLabel, SequenceDatabase};

/// Per-shard scratch buffers threaded through the chunk miners: support
/// intersections, match positions, interning keys and relation triples all
/// reuse their capacity across candidates instead of allocating per
/// candidate. Each shard owns one `Scratch`, so the parallel path needs no
/// synchronisation around them.
#[derive(Debug, Default)]
struct Scratch {
    /// Candidate-group support under construction (k-loop), kept alive while
    /// the per-pattern buffers below are recycled.
    group_support: SupportSet,
    /// Pair/extendable support intersection output.
    support: SupportSet,
    /// Positions of the intersection matches in the left input.
    pos_a: Vec<u32>,
    /// Positions of the intersection matches in the right input.
    pos_b: Vec<u32>,
    /// Packed interning key under construction.
    key: Vec<u64>,
    /// Relation triples of the occurrence under construction.
    triples: Vec<RelationTriple>,
    /// Bitwise-AND of the group members' adjacency rows.
    row: Vec<u64>,
    /// The enumerated extension events of the current group.
    ext: Vec<EventLabel>,
}

/// Per-level reuse counters collected while mining a chunk; summed across
/// shards (the sums are order-independent, so parallel runs report exactly
/// the sequential numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LevelCounters {
    /// `classify_relation` calls replaced by a verdict-table lookup.
    classifier_calls_saved: usize,
    /// (group, extension-event) combinations the adjacency rows pruned
    /// before any support intersection ran.
    adjacency_pruned_candidates: usize,
}

impl LevelCounters {
    fn merge(&mut self, other: LevelCounters) {
        self.classifier_calls_saved += other.classifier_calls_saved;
        self.adjacency_pruned_candidates += other.adjacency_pruned_candidates;
    }
}

/// What mining one shard of a level produces.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one value per shard and level
enum LevelOutput {
    /// A level that will be extended: the shard's full `HLH_k`.
    Materialised(HlhK),
    /// The terminal level, streamed one combination at a time.
    Streamed(StreamedLevel),
}

impl LevelOutput {
    /// Wraps a chunk miner's result: its streamed output when the level is
    /// terminal, its `HLH_k` otherwise.
    fn of(level: HlhK, streamed: Option<StreamedLevel>) -> Self {
        match streamed {
            Some(out) => Self::Streamed(out),
            None => Self::Materialised(level),
        }
    }

    /// Merges the per-shard outputs of one level in shard order. All shards
    /// of a level are of the same kind.
    fn merge_shards(k: usize, shards: Vec<LevelOutput>) -> Self {
        let mut levels = Vec::with_capacity(shards.len());
        let mut streamed: Option<StreamedLevel> = None;
        for shard in shards {
            match shard {
                Self::Materialised(level) => levels.push(level),
                Self::Streamed(out) => streamed.get_or_insert_with(Default::default).append(out),
            }
        }
        debug_assert!(
            streamed.is_none() || levels.is_empty(),
            "a level is either streamed or materialised in every shard"
        );
        match streamed {
            Some(out) => Self::Streamed(out),
            None => Self::Materialised(HlhK::merge_shards(k, levels)),
        }
    }
}

/// The streamed terminal level of one shard. Each (k-1)-group × `E_k`
/// combination (each level-2 pair at k = 2) is mined into one reused
/// terminal [`HlhK`] and flushed as soon as it is done, so the level's
/// `HLH_k` never exists as a whole.
#[derive(Debug, Default)]
struct StreamedLevel {
    /// Frequent patterns with support and seasons, in emission order.
    patterns: Vec<MinedPattern>,
    /// Combinations that kept at least one candidate pattern (each is one
    /// k-group).
    candidate_groups: usize,
    /// Candidate patterns that passed the `maxSeason` gate.
    candidate_patterns: usize,
    /// Largest footprint the per-combination structure reached.
    peak_footprint: usize,
}

impl StreamedLevel {
    /// Flushes one finished combination: applies the `maxSeason` candidate
    /// gate (under Apriori pruning), counts its group and candidate
    /// patterns, emits its frequent patterns and empties `combination` for
    /// the next one.
    fn flush(&mut self, combination: &mut HlhK, config: &ResolvedConfig) {
        if combination.is_empty() {
            return;
        }
        crate::invariants::debug_validate!(combination.validate());
        self.peak_footprint = self.peak_footprint.max(combination.footprint_bytes());
        let apriori = config.pruning.apriori_enabled();
        let mut kept = 0usize;
        for entry in combination.patterns() {
            if apriori && !config.is_candidate(entry.support.len()) {
                continue;
            }
            kept += 1;
            emit_if_frequent(entry, config, &mut self.patterns);
        }
        combination.clear();
        self.candidate_patterns += kept;
        self.candidate_groups += usize::from(kept > 0);
    }

    /// Appends the output of the next shard.
    fn append(&mut self, shard: StreamedLevel) {
        self.patterns.extend(shard.patterns);
        self.candidate_groups += shard.candidate_groups;
        self.candidate_patterns += shard.candidate_patterns;
        self.peak_footprint = self.peak_footprint.max(shard.peak_footprint);
    }
}

/// Reports `entry` into `out` with its seasons when it is a frequent
/// seasonal pattern, and returns whether it was. The frequency check is
/// allocation-free and exits early; seasons are materialised only for the
/// survivors. The report gets fresh copies of the pattern and support:
/// buffers moved out of a per-combination structure would stay pinned
/// among the short-lived allocations they were made with, leaving heap
/// holes that raise the peak RSS of whatever the process allocates next.
fn emit_if_frequent(
    entry: &PatternEntry,
    config: &ResolvedConfig,
    out: &mut Vec<MinedPattern>,
) -> bool {
    if !support_is_frequent(&entry.support, config) {
        return false;
    }
    out.push(MinedPattern::new(
        entry.pattern.clone(),
        entry.support.clone(),
        find_seasons(&entry.support, config),
    ));
    true
}

/// The exact seasonal temporal pattern mining engine (E-STPM).
///
/// `StpmMiner` is a stateless engine value: the data to mine arrives per call
/// (either a bare [`SequenceDatabase`] through the inherent helpers, or a
/// full [`MiningInput`] through the [`MiningEngine`] trait).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StpmMiner;

impl StpmMiner {
    /// Mines a sequence database, resolving the fractional thresholds of
    /// `config` against the database size first.
    ///
    /// # Errors
    /// Propagates configuration-validation errors.
    pub fn mine_sequences(dseq: &SequenceDatabase, config: &StpmConfig) -> Result<MiningReport> {
        let resolved = config.resolve(dseq.num_granules())?;
        Ok(Self::mine_sequences_resolved(dseq, &resolved))
    }

    /// Mines a sequence database under an already-resolved configuration.
    #[must_use]
    pub fn mine_sequences_resolved(
        dseq: &SequenceDatabase,
        config: &ResolvedConfig,
    ) -> MiningReport {
        ExactRun {
            dseq,
            config: *config,
        }
        .mine()
    }
}

impl MiningEngine for StpmMiner {
    fn name(&self) -> &'static str {
        "E-STPM"
    }

    fn mine(&self, input: &MiningInput<'_>, config: &ResolvedConfig) -> Result<EngineReport> {
        let report = Self::mine_sequences_resolved(input.dseq(), config);
        let stats = report.stats();
        let timings = vec![
            PhaseTiming::new(phases::SINGLE_EVENTS, stats.single_event_time),
            PhaseTiming::new(phases::PATTERNS, stats.pattern_time),
        ];
        let memory = stats.peak_footprint_bytes;
        Ok(EngineReport::new(
            self.name(),
            report,
            input.dseq().registry().clone(),
            timings,
            PruningSummary::keep_all(input),
            memory,
        ))
    }
}

/// One exact mining run over one database (the Algorithm 1 implementation).
#[derive(Debug, Clone)]
struct ExactRun<'a> {
    dseq: &'a SequenceDatabase,
    config: ResolvedConfig,
}

impl ExactRun<'_> {
    /// Runs the full mining process and returns every frequent seasonal
    /// single event and temporal pattern.
    fn mine(&self) -> MiningReport {
        let total_start = Instant::now();
        let apriori = self.config.pruning.apriori_enabled();

        // -------- Step 2.1: frequent seasonal single events --------
        let single_start = Instant::now();
        let hlh1 = Hlh1::build(self.dseq, &self.config, apriori);
        crate::invariants::debug_validate!(hlh1.validate());
        let mut events_out = Vec::new();
        for &label in hlh1.labels() {
            let entry = hlh1.entry(label).expect("label comes from the table");
            // Allocation-free early-exit frequency check; seasons are
            // materialised only for the survivors.
            if support_is_frequent(&entry.support, &self.config) {
                events_out.push(MinedEvent {
                    label,
                    support: entry.support.clone(),
                    seasons: find_seasons(&entry.support, &self.config),
                });
            }
        }
        let single_event_time = single_start.elapsed();

        // -------- Step 2.2: frequent seasonal k-event patterns --------
        // Only HLH_2 (transitivity lookups) and HLH_{k-1} (bindings to
        // extend) are ever read again, so only those stay alive, and the
        // last level is streamed; the peak footprint tracks the live
        // structures of each level.
        let pattern_start = Instant::now();
        let f1: &[EventLabel] = hlh1.labels();
        let hlh1_footprint = hlh1.footprint_bytes();
        let mut patterns_out: Vec<MinedPattern> = Vec::new();
        let mut level_stats: Vec<LevelStats> = Vec::new();
        let mut hlh2: Option<HlhK> = None;
        let mut prev: Option<HlhK> = None;
        let mut adjacency: Option<RelationAdjacency> = None;
        let mut peak_footprint = hlh1_footprint;

        for k in 2..=self.config.max_pattern_len {
            // The last level is never extended: stream it one combination
            // at a time, without a binding pool (and, at level 2, without
            // the verdict table).
            let terminal = k == self.config.max_pattern_len;
            let (output, counters) = match (k, &hlh2, &prev) {
                (2, _, _) => self.mine_pairs(&hlh1, f1, terminal),
                (3, Some(h2), _) => {
                    self.mine_k_events(&hlh1, f1, h2, h2, k, adjacency.as_ref(), terminal)
                }
                (_, Some(h2), Some(p)) => {
                    self.mine_k_events(&hlh1, f1, p, h2, k, adjacency.as_ref(), terminal)
                }
                _ => unreachable!("levels are mined in increasing k"),
            };
            let (candidate_groups, candidate_patterns, frequent, level_footprint, next) =
                match output {
                    LevelOutput::Streamed(level) => {
                        let frequent = level.patterns.len();
                        patterns_out.extend(level.patterns);
                        (
                            level.candidate_groups,
                            level.candidate_patterns,
                            frequent,
                            level.peak_footprint,
                            None,
                        )
                    }
                    LevelOutput::Materialised(mut hlhk) => {
                        if apriori {
                            hlhk.retain_candidates(&self.config);
                        }
                        crate::invariants::debug_validate!(hlhk.validate());
                        if k == 2 && self.config.pruning.transitivity_enabled() {
                            // Built after retain_candidates so the bit matrix
                            // matches exactly what has_relation_between would
                            // answer at k >= 3.
                            adjacency = Some(RelationAdjacency::build(&hlhk, f1));
                        }
                        let mut frequent = 0usize;
                        for entry in hlhk.patterns() {
                            if emit_if_frequent(entry, &self.config, &mut patterns_out) {
                                frequent += 1;
                            }
                        }
                        let footprint = hlhk.footprint_bytes();
                        (
                            hlhk.num_groups(),
                            hlhk.num_patterns(),
                            frequent,
                            footprint,
                            Some(hlhk),
                        )
                    }
                };
            let live_footprint = hlh1_footprint
                + adjacency
                    .as_ref()
                    .map_or(0, RelationAdjacency::footprint_bytes)
                + hlh2.as_ref().map_or(0, HlhK::footprint_bytes)
                + prev.as_ref().map_or(0, HlhK::footprint_bytes)
                + level_footprint;
            peak_footprint = peak_footprint.max(live_footprint);
            level_stats.push(LevelStats {
                k,
                candidate_groups,
                candidate_patterns,
                frequent_patterns: frequent,
                footprint_bytes: level_footprint,
                classifier_calls_saved: counters.classifier_calls_saved,
                adjacency_pruned_candidates: counters.adjacency_pruned_candidates,
            });
            let Some(hlhk) = next else {
                break; // the streamed terminal level
            };
            let empty = hlhk.is_empty();
            if k == 2 {
                hlh2 = Some(hlhk);
            } else {
                prev = Some(hlhk); // drops level k-1 (for k ≥ 4)
            }
            if empty {
                break;
            }
        }
        let pattern_time = pattern_start.elapsed();

        let stats = MiningStats {
            num_granules: self.dseq.num_granules(),
            num_events: self.dseq.distinct_events().len(),
            candidate_events: hlh1.len(),
            frequent_events: events_out.len(),
            levels: level_stats,
            total_time: total_start.elapsed(),
            single_event_time,
            pattern_time,
            peak_footprint_bytes: peak_footprint,
        };
        MiningReport::new(events_out, patterns_out, stats)
    }

    /// Shards level-mining work across the configured worker threads and
    /// merges the per-shard outputs in shard order. `shard_ranges` cuts
    /// `0..num_items` into at most `threads` *contiguous* ranges of roughly
    /// equal estimated cost (evaluated only when actually sharding, so the
    /// sequential path pays nothing for it); contiguity is what lets the
    /// merged level preserve sequential order while heavy items don't pile
    /// up in one shard. With one thread — or one work item — the chunk miner
    /// runs inline on the caller's thread.
    fn mine_sharded<C, F>(
        &self,
        k: usize,
        num_items: usize,
        shard_ranges: C,
        mine_chunk: F,
    ) -> (LevelOutput, LevelCounters)
    where
        C: FnOnce(usize) -> Vec<Range<usize>>,
        F: Fn(Range<usize>) -> (LevelOutput, LevelCounters) + Sync,
    {
        let threads = self.config.threads.min(num_items).max(1);
        if threads == 1 {
            return mine_chunk(0..num_items);
        }
        let ranges = shard_ranges(threads);
        debug_assert_eq!(ranges.first().map(|r| r.start), Some(0));
        debug_assert_eq!(ranges.last().map(|r| r.end), Some(num_items));
        let results: Vec<(LevelOutput, LevelCounters)> = std::thread::scope(|scope| {
            let mine_chunk = &mine_chunk;
            let handles: Vec<_> = ranges
                .into_iter()
                // Row-aligned cuts can map to an empty pair range (the last
                // triangle row holds no pairs) — nothing to spawn for.
                .filter(|range| !range.is_empty())
                .map(|range| scope.spawn(move || mine_chunk(range)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mining shard panicked"))
                .collect()
        });
        let mut counters = LevelCounters::default();
        let shards: Vec<LevelOutput> = results
            .into_iter()
            .map(|(shard, shard_counters)| {
                counters.merge(shard_counters);
                shard
            })
            .collect();
        (LevelOutput::merge_shards(k, shards), counters)
    }

    /// Mines candidate 2-event groups and patterns (Section IV-D, 4.2.1),
    /// sharding the candidate pair space across the configured threads.
    /// Patterns relate *distinct* events: an event group is a set, matching
    /// the transactional view the APS-growth baseline mines — this is what
    /// makes the two engines output-equivalent.
    ///
    /// Unless the level is `terminal`, every classification verdict is also
    /// recorded into the level's [`VerdictTable`](crate::hlh::VerdictTable)
    /// so the k ≥ 3 loop can look relations up instead of re-classifying;
    /// a `terminal` level is streamed one pair at a time.
    fn mine_pairs(
        &self,
        hlh1: &Hlh1,
        f1: &[EventLabel],
        terminal: bool,
    ) -> (LevelOutput, LevelCounters) {
        let n = f1.len();
        let num_pairs = n * n.saturating_sub(1) / 2;
        // A pair's work is bounded by its support intersection, which is at
        // most the smaller of the two single-event supports. Costs are
        // aggregated per row (per first event) so the estimator stays O(n)
        // in memory even when the pair space has millions of entries; the
        // shard cuts are row-aligned as a result.
        let shard_ranges = |threads: usize| {
            let row_costs: Vec<u64> = (0..n)
                .map(|i| {
                    let sup_i = hlh1.support(f1[i]).len() as u64;
                    f1[i + 1..]
                        .iter()
                        .map(|&ej| 1 + sup_i.min(hlh1.support(ej).len() as u64))
                        .sum()
                })
                .collect();
            balanced_ranges(&row_costs, threads)
                .into_iter()
                .map(|rows| pair_offset(n, rows.start)..pair_offset(n, rows.end))
                .collect()
        };
        self.mine_sharded(2, num_pairs, shard_ranges, |range| {
            self.mine_pairs_chunk(hlh1, f1, range, terminal)
        })
    }

    /// Mines one shard of the candidate pair space into a local `HLH_2`, or,
    /// when `terminal`, into one per-pair structure flushed after every
    /// pair. A group is registered lazily, on its first candidate pattern: a
    /// pair whose instances never classify into a relation contributes no
    /// candidates and must not inflate the level's group count.
    ///
    /// The loop is allocation-free per occurrence: the support intersection
    /// reuses the shard's scratch buffers, instance slices are reached
    /// through the recorded intersection positions (no binary search per
    /// granule), the pattern is identified by a three-word stack key, and
    /// the binding is appended straight into the level's instance pool.
    ///
    /// Unless `terminal`, every cross-product cell's verdict — including the
    /// "no relation" outcome — is appended to the verdict table in row-major
    /// (`ei`-instance × `ej`-instance) order, giving the k ≥ 3 loop complete
    /// coverage of every pair it can ever probe.
    fn mine_pairs_chunk(
        &self,
        hlh1: &Hlh1,
        f1: &[EventLabel],
        range: Range<usize>,
        terminal: bool,
    ) -> (LevelOutput, LevelCounters) {
        let apriori = self.config.pruning.apriori_enabled();
        let record_verdicts = !terminal;
        let mut hlh2 = if terminal {
            HlhK::new_terminal(2)
        } else {
            HlhK::new(2)
        };
        let mut streamed = terminal.then(StreamedLevel::default);
        let mut scratch = Scratch::default();
        for (ei, ej) in pair_range(f1, range) {
            let entry_i = hlh1.entry(ei).expect("f1 labels come from HLH_1");
            let entry_j = hlh1.entry(ej).expect("f1 labels come from HLH_1");
            intersect_positions_into(
                &entry_i.support,
                &entry_j.support,
                &mut scratch.support,
                &mut scratch.pos_a,
                &mut scratch.pos_b,
            );
            if scratch.support.is_empty() {
                continue;
            }
            if apriori && !self.config.is_candidate(scratch.support.len()) {
                continue;
            }
            let (enc_i, enc_j) = (encode_label(ei), encode_label(ej));
            let mut group_id: Option<GroupId> = None;
            if record_verdicts {
                hlh2.verdict_table_mut().begin_pair(ei, ej);
            }
            for (m, &granule) in scratch.support.iter().enumerate() {
                let instances_i = entry_i.instances_at_index(scratch.pos_a[m] as usize);
                let instances_j = entry_j.instances_at_index(scratch.pos_b[m] as usize);
                if record_verdicts {
                    hlh2.verdict_table_mut().begin_granule(granule);
                }
                for a in instances_i.iter() {
                    for b in instances_j.iter() {
                        let in_order = chronological_order(&a.interval, &b.interval, 0u8, 1u8);
                        let (first, second) = if in_order { (a, b) } else { (b, a) };
                        let verdict = classify_relation(
                            &first.interval,
                            &second.interval,
                            self.config.epsilon,
                            self.config.min_overlap,
                        );
                        if record_verdicts {
                            hlh2.verdict_table_mut().push_verdict(
                                verdict
                                    .map_or(VERDICT_NONE, |kind| encode_verdict(kind, !in_order)),
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
                        let key = [enc_i, enc_j, encode_triple(triple)];
                        let group = *group_id.get_or_insert_with(|| {
                            hlh2.insert_group(vec![ei, ej], scratch.support.clone())
                        });
                        hlh2.add_pattern_occurrence(
                            group,
                            &key,
                            || TemporalPattern::pair([ei, ej], kind, !in_order),
                            granule,
                            std::slice::from_ref(a),
                            *b,
                        );
                    }
                }
            }
            if let Some(out) = &mut streamed {
                out.flush(&mut hlh2, &self.config);
            }
        }
        (LevelOutput::of(hlh2, streamed), LevelCounters::default())
    }

    /// Mines candidate k-event groups and patterns for k ≥ 3
    /// (Section IV-D, 4.2.2): each candidate (k-1)-group of `prev` is
    /// extended with a single event, relations with the new event are
    /// verified on the stored instance bindings, and the resulting candidate
    /// k-patterns are collected into a fresh `HLH_k` — or, for a `terminal`
    /// level, streamed one (group, `E_k`) combination at a time. The
    /// (k-1)-group list is sharded across the configured threads.
    ///
    /// With transitivity pruning on, `adjacency` must carry the level-2
    /// relation matrix: the extension events of a group are then enumerated
    /// from the AND of its members' rows (masked to `FilteredF_1`) instead
    /// of scanning `FilteredF_1` and probing `has_relation_between` per
    /// member.
    #[allow(clippy::too_many_arguments)]
    fn mine_k_events(
        &self,
        hlh1: &Hlh1,
        f1: &[EventLabel],
        prev: &HlhK,
        hlh2: &HlhK,
        k: usize,
        adjacency: Option<&RelationAdjacency>,
        terminal: bool,
    ) -> (LevelOutput, LevelCounters) {
        let transitivity = self.config.pruning.transitivity_enabled();
        debug_assert_eq!(
            transitivity,
            adjacency.is_some(),
            "the adjacency matrix exists exactly when transitivity pruning is on"
        );
        let filtered_f1: Vec<EventLabel> = if transitivity {
            let participating = prev.participating_events();
            f1.iter()
                .copied()
                .filter(|e| participating.binary_search(e).is_ok())
                .collect()
        } else {
            f1.to_vec()
        };
        // FilteredF_1 as a bitset over the adjacency's interned label ids,
        // AND-ed into every group's extension row. For k = 3 the mask is
        // redundant (any event related to both members participates in a
        // 2-pattern by definition), but for k >= 4 it is what keeps the
        // enumeration identical to the scan-and-probe path.
        let filtered_mask: Option<Vec<u64>> = adjacency.map(|adj| {
            let mut mask = vec![0u64; adj.len().div_ceil(64)];
            for &label in &filtered_f1 {
                let id = adj
                    .index_of(label)
                    .expect("FilteredF_1 labels are candidates");
                mask[id / 64] |= 1 << (id % 64);
            }
            mask
        });
        let groups: Vec<&GroupEntry> = prev
            .groups()
            .into_iter()
            .filter(|entry| !entry.patterns.is_empty())
            .collect();
        // A group's extension work scales with the occurrences of its
        // candidate patterns (every binding is a potential extension seed).
        let shard_ranges = |threads: usize| {
            let costs: Vec<u64> = groups
                .iter()
                .map(|entry| {
                    1 + entry
                        .patterns
                        .iter()
                        .map(|&id| prev.pattern(id).support.len() as u64)
                        .sum::<u64>()
                })
                .collect();
            balanced_ranges(&costs, threads)
        };
        self.mine_sharded(k, groups.len(), shard_ranges, |range| {
            self.mine_k_events_chunk(
                hlh1,
                &filtered_f1,
                filtered_mask.as_deref(),
                prev,
                hlh2,
                adjacency,
                k,
                &groups[range],
                terminal,
            )
        })
    }

    /// Mines one shard of the (k-1)-group list into a local `HLH_k`, or,
    /// when `terminal`, into one per-combination structure flushed after
    /// every (group, `E_k`) combination.
    ///
    /// Like the pair miner, the extension loop performs no per-occurrence
    /// allocation: the group/extendable intersections reuse the shard's
    /// scratch buffers, the interning key of an extended pattern is built
    /// incrementally in a scratch word buffer (events + base triples are
    /// shared prefixes, only the new triples vary per occurrence), bindings
    /// of the previous level are read as pool slices, and the extended
    /// binding is appended to the new level's pool without materialising an
    /// owned vector. A [`TemporalPattern`] is only constructed the first
    /// time its key appears.
    ///
    /// Relation verdicts between a binding member and an extension instance
    /// are read from the level-2 verdict table: the pair handle is resolved
    /// once per (group, `E_k`), the granule block once per granule, and the
    /// member's row once per binding, so the per-cell cost is one byte load.
    /// Cells the table does not cover fall back to the closed-form
    /// classifier; in debug builds every hit is cross-checked against it.
    #[allow(clippy::too_many_arguments)]
    fn mine_k_events_chunk(
        &self,
        hlh1: &Hlh1,
        filtered_f1: &[EventLabel],
        filtered_mask: Option<&[u64]>,
        prev: &HlhK,
        hlh2: &HlhK,
        adjacency: Option<&RelationAdjacency>,
        k: usize,
        groups: &[&GroupEntry],
        terminal: bool,
    ) -> (LevelOutput, LevelCounters) {
        let apriori = self.config.pruning.apriori_enabled();
        let new_index = u8::try_from(k - 1).expect("pattern length fits u8");
        let verdicts = hlh2.verdict_table();
        let mut hlhk = if terminal {
            HlhK::new_terminal(k)
        } else {
            HlhK::new(k)
        };
        let mut streamed = terminal.then(StreamedLevel::default);
        let mut counters = LevelCounters::default();
        let mut scratch = Scratch::default();
        let kernels = crate::simd::kernels();
        // Chunk-lived buffers of borrowed data (they hold references into
        // the adjacency matrix, HLH_1 and the verdict table, so they cannot
        // live in the owned `Scratch`); all reuse their capacity across
        // candidates.
        let mut member_rows: Vec<&[u64]> = Vec::new();
        let mut member_entries: Vec<&EventEntry> = Vec::new();
        let mut member_pairs: Vec<Option<PairVerdicts<'_>>> = Vec::new();
        let mut member_blocks: Vec<Option<(&[u8], &[EventInstance])>> = Vec::new();
        let mut binding_rows: Vec<Option<&[u8]>> = Vec::new();
        for &group_entry in groups {
            let group_events = &group_entry.events;
            let last = *group_events.last().expect("groups are non-empty");
            member_entries.clear();
            for &member in group_events {
                member_entries.push(hlh1.entry(member).expect("group events come from HLH_1"));
            }
            // ---- extension enumeration ----
            scratch.ext.clear();
            if let Some(adj) = adjacency {
                // Transitivity pruning (Lemma 4) as one bitwise pass: the
                // extension set is the AND of the members' neighbor rows,
                // masked to FilteredF_1, walked beyond the last member.
                member_rows.clear();
                for &member in group_events {
                    let id = adj.index_of(member).expect("group events are candidates");
                    member_rows.push(adj.row(id));
                }
                let Scratch { row, ext, .. } = &mut scratch;
                intersect_rows_into(row, &member_rows);
                if let Some(mask) = filtered_mask {
                    kernels.and_words(row, mask);
                }
                let last_id = adj.index_of(last).expect("group events are candidates");
                ext.extend(iter_set_bits(row, last_id + 1).map(|id| adj.label(id)));
                let naive = filtered_f1.len() - filtered_f1.partition_point(|&e| e <= last);
                counters.adjacency_pruned_candidates += naive - ext.len();
            } else {
                let from = filtered_f1.partition_point(|&e| e <= last);
                scratch.ext.extend_from_slice(&filtered_f1[from..]);
            }
            for ext_idx in 0..scratch.ext.len() {
                let ek = scratch.ext[ext_idx];
                let ek_entry = hlh1.entry(ek).expect("extension labels come from HLH_1");
                intersect_into(
                    &mut scratch.group_support,
                    &group_entry.support,
                    &ek_entry.support,
                );
                if scratch.group_support.is_empty() {
                    continue;
                }
                if apriori && !self.config.is_candidate(scratch.group_support.len()) {
                    continue;
                }
                let mut group_id: Option<GroupId> = None;
                // Interning-key prefix shared by every pattern of this
                // (group, E_k) combination: the packed new-group events.
                scratch.key.clear();
                scratch
                    .key
                    .extend(group_events.iter().copied().map(encode_label));
                scratch.key.push(encode_label(ek));
                let events_len = scratch.key.len();
                // Verdict-table pair handles, one per member (every member
                // label is smaller than E_k, matching the recorded order).
                member_pairs.clear();
                for &member in group_events {
                    member_pairs.push(verdicts.pair(member, ek));
                }

                for &pid in &group_entry.patterns {
                    let pattern_entry = prev.pattern(pid);
                    // The base pattern's canonical triples are a shared
                    // prefix too: new triples all involve the (largest) new
                    // event index, so they sort after every base triple.
                    scratch.key.truncate(events_len);
                    scratch.key.extend(
                        pattern_entry
                            .pattern
                            .triples()
                            .iter()
                            .copied()
                            .map(encode_triple),
                    );
                    let base_len = scratch.key.len();
                    intersect_positions_into(
                        &pattern_entry.support,
                        &ek_entry.support,
                        &mut scratch.support,
                        &mut scratch.pos_a,
                        &mut scratch.pos_b,
                    );
                    for m in 0..scratch.support.len() {
                        let granule = scratch.support[m];
                        let ek_instances = ek_entry.instances_at_index(scratch.pos_b[m] as usize);
                        debug_assert!(!ek_instances.is_empty(), "support implies instances");
                        let cols = ek_instances.len();
                        // Resolve each member's verdict block and HLH_1
                        // instance slice once per granule.
                        member_blocks.clear();
                        for (idx, entry) in member_entries.iter().enumerate() {
                            member_blocks.push(member_pairs[idx].and_then(|pair| {
                                let block = pair.block(granule)?;
                                let instances = entry.instances_at(granule);
                                debug_assert_eq!(
                                    block.len(),
                                    instances.len() * cols,
                                    "verdict blocks cover the full cross-product"
                                );
                                Some((block, instances))
                            }));
                        }
                        // A member whose verdict block holds no relation at
                        // all at this granule vetoes every binding × E_k
                        // instance below — one wide byte scan per block
                        // (the dispatched kernel) decides before any
                        // binding is enumerated. Uncovered members
                        // (`None`) fall back to the classifier and cannot
                        // be skipped.
                        if member_blocks.iter().any(
                            |blk| matches!(blk, Some((block, _)) if !kernels.verdict_any(block)),
                        ) {
                            continue;
                        }
                        for &bid in pattern_entry.binding_ids_at_index(scratch.pos_a[m] as usize) {
                            let binding = prev.binding(bid);
                            // Resolve each member instance's verdict row for
                            // this binding (instances per granule are few,
                            // so the position scan is one or two compares).
                            binding_rows.clear();
                            for (idx, bound) in binding.iter().enumerate() {
                                binding_rows.push(member_blocks[idx].and_then(
                                    |(block, instances)| {
                                        let row = instances.iter().position(|x| x == bound)?;
                                        Some(&block[row * cols..(row + 1) * cols])
                                    },
                                ));
                            }
                            'instances: for (ek_idx, ek_instance) in ek_instances.iter().enumerate()
                            {
                                if binding.contains(ek_instance) {
                                    continue;
                                }
                                scratch.triples.clear();
                                scratch.key.truncate(base_len);
                                for (idx, bound) in binding.iter().enumerate() {
                                    let idx_u8 = u8::try_from(idx).expect("pattern length fits u8");
                                    let triple = match binding_rows[idx] {
                                        Some(row) => {
                                            counters.classifier_calls_saved += 1;
                                            let triple = decode_verdict(row[ek_idx]).map(
                                                |(kind, swapped)| {
                                                    if swapped {
                                                        RelationTriple::new(kind, new_index, idx_u8)
                                                    } else {
                                                        RelationTriple::new(kind, idx_u8, new_index)
                                                    }
                                                },
                                            );
                                            debug_assert_eq!(
                                                triple,
                                                self.classify_instance_pair(
                                                    bound,
                                                    ek_instance,
                                                    idx_u8,
                                                    new_index
                                                ),
                                                "verdict table diverged from the classifier"
                                            );
                                            triple
                                        }
                                        None => self.classify_instance_pair(
                                            bound,
                                            ek_instance,
                                            idx_u8,
                                            new_index,
                                        ),
                                    };
                                    match triple {
                                        Some(t) => {
                                            scratch.triples.push(t);
                                            scratch.key.push(encode_triple(t));
                                        }
                                        None => continue 'instances,
                                    }
                                }
                                let group = match group_id {
                                    Some(g) => g,
                                    None => {
                                        let events: Vec<EventLabel> = group_events
                                            .iter()
                                            .copied()
                                            .chain(std::iter::once(ek))
                                            .collect();
                                        let g = hlhk
                                            .insert_group(events, scratch.group_support.clone());
                                        group_id = Some(g);
                                        g
                                    }
                                };
                                hlhk.add_pattern_occurrence(
                                    group,
                                    &scratch.key,
                                    || pattern_entry.pattern.extended(ek, scratch.triples.clone()),
                                    granule,
                                    binding,
                                    *ek_instance,
                                );
                            }
                        }
                    }
                }
                if let Some(out) = &mut streamed {
                    out.flush(&mut hlhk, &self.config);
                }
            }
        }
        (LevelOutput::of(hlhk, streamed), counters)
    }

    /// The closed-form relation classification of one (binding-member,
    /// extension-instance) pair — the verdict-table fallback and the
    /// debug-build cross-check.
    // lint: hot-path
    fn classify_instance_pair(
        &self,
        bound: &EventInstance,
        ek_instance: &EventInstance,
        idx: u8,
        new_index: u8,
    ) -> Option<RelationTriple> {
        let in_order = chronological_order(&bound.interval, &ek_instance.interval, idx, new_index);
        if in_order {
            classify_relation(
                &bound.interval,
                &ek_instance.interval,
                self.config.epsilon,
                self.config.min_overlap,
            )
            .map(|r| RelationTriple::new(r, idx, new_index))
        } else {
            classify_relation(
                &ek_instance.interval,
                &bound.interval,
                self.config.epsilon,
                self.config.min_overlap,
            )
            .map(|r| RelationTriple::new(r, new_index, idx))
        }
    }
}

/// Flat triangular index of the first pair of row `row` (the number of pairs
/// in rows `0..row` of an `n`-event triangle).
// lint: hot-path
fn pair_offset(n: usize, row: usize) -> usize {
    row * n - row * (row + 1) / 2
}

/// Yields the candidate event pairs `(f1[i], f1[j])`, `i < j`, whose flat
/// triangular indices fall in `range`, in the row-major order the sequential
/// miner enumerates them — without materializing the full pair list. The
/// flat index of pair `(i, j)` is [`pair_offset`]`(n, i) + (j - i - 1)`.
// lint: hot-path
fn pair_range(
    f1: &[EventLabel],
    range: Range<usize>,
) -> impl Iterator<Item = (EventLabel, EventLabel)> + '_ {
    let n = f1.len();
    // Locate the (row, column) of range.start by walking the triangle rows.
    let mut i = 0usize;
    let mut row_start = 0usize; // flat index of pair (i, i + 1)
    while i < n && row_start + (n - i - 1) <= range.start {
        row_start += n - i - 1;
        i += 1;
    }
    let mut j = i + 1 + (range.start - row_start);
    let mut remaining = range.len();
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        while j >= n {
            i += 1;
            if i + 1 >= n {
                // Only reachable when the caller asked for more pairs than
                // the triangle holds — the ranges cut by `pair_offset` always
                // end on or before the last row. Assert instead of silently
                // truncating the enumeration.
                debug_assert!(
                    remaining == 0,
                    "pair_range walked past the end of the triangle \
                     ({remaining} pairs still requested)"
                );
                return None;
            }
            j = i + 1;
        }
        let pair = (f1[i], f1[j]);
        j += 1;
        remaining -= 1;
        Some(pair)
    })
}

/// Cuts `costs.len()` work items into at most `threads` contiguous,
/// non-empty ranges whose cumulative costs are as even as a greedy
/// left-to-right walk can make them. Contiguity is what lets the per-shard
/// results be merged back in order (also reused by the streaming miner to
/// shard an appended granule batch).
pub(crate) fn balanced_ranges(costs: &[u64], threads: usize) -> Vec<Range<usize>> {
    let total: u64 = costs.iter().sum();
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut spent = 0u64;
    for t in 0..threads {
        if start >= costs.len() {
            break;
        }
        // Remaining shards must each get at least one item.
        let max_end = costs.len() - (threads - t - 1).min(costs.len() - start - 1);
        let target = (total * (t as u64 + 1)).div_ceil(threads as u64);
        let mut end = start + 1;
        spent += costs[start];
        while end < max_end && spent + costs[end] / 2 < target {
            spent += costs[end];
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    if let (Some(last), true) = (ranges.last_mut(), start < costs.len()) {
        last.end = costs.len();
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PruningMode, Threshold};
    use crate::relation::RelationKind;
    use std::collections::BTreeSet;
    use stpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries};

    /// Builds the full running example of the paper (Table II / Table IV):
    /// five appliance series at 5-minute granularity, 42 instants, mapped to
    /// 14 granules of 15 minutes.
    fn paper_dseq() -> (SymbolicDatabase, SequenceDatabase) {
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
        let dsyb = SymbolicDatabase::new(series).unwrap();
        let dseq = dsyb.to_sequence_database(3).unwrap();
        (dsyb, dseq)
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
    fn mining_the_paper_example_finds_c1_contains_d1() {
        let (dsyb, dseq) = paper_dseq();
        let report = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();

        let c1 = dsyb.registry().label("C", "1").unwrap();
        let d1 = dsyb.registry().label("D", "1").unwrap();
        let target = TemporalPattern::pair([c1, d1], RelationKind::Contains, false);
        let found = report
            .patterns()
            .iter()
            .find(|p| p.pattern() == &target)
            .expect("C:1 contains D:1 must be a frequent seasonal pattern");
        assert_eq!(found.support(), &[1, 2, 3, 7, 8, 11, 12, 14]);
        assert!(found.seasons().count() >= 2);
    }

    #[test]
    fn single_event_m1_is_not_frequent_but_participates_in_patterns() {
        // The anti-monotonicity counter-example of Section IV-B: M:1 alone is
        // not seasonal (one long season), yet M:1 ≽ N:1 is.
        let (dsyb, dseq) = paper_dseq();
        let config = StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(3),
            dist_interval: (4, 10),
            min_season: 2,
            max_pattern_len: 2,
            ..StpmConfig::default()
        };
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();

        let m1 = dsyb.registry().label("M", "1").unwrap();
        let n1 = dsyb.registry().label("N", "1").unwrap();
        assert!(
            !report.events().iter().any(|e| e.label == m1),
            "M:1 must not be a frequent seasonal single event"
        );
        let target = TemporalPattern::pair([m1, n1], RelationKind::Contains, false);
        assert!(
            report.contains_pattern(&target),
            "M:1 contains N:1 must be frequent"
        );
    }

    #[test]
    fn report_contains_three_event_patterns() {
        let (_, dseq) = paper_dseq();
        let report = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        assert!(
            !report.patterns_of_len(3).is_empty(),
            "the example database contains frequent 3-event patterns"
        );
        // Every 3-event pattern has 3 relation triples.
        for p in report.patterns_of_len(3) {
            assert_eq!(p.pattern().triples().len(), 3);
        }
    }

    #[test]
    fn all_pruning_modes_find_the_same_frequent_patterns() {
        // The prunings are exact: they shrink the search space but never the
        // output (completeness of E-STPM).
        let (_, dseq) = paper_dseq();
        let mut outputs: Vec<BTreeSet<String>> = Vec::new();
        for mode in PruningMode::all_modes() {
            let config = paper_config().with_pruning(mode);
            let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
            let set: BTreeSet<String> = report
                .patterns()
                .iter()
                .map(|p| format!("{:?}", p.pattern()))
                .chain(report.events().iter().map(|e| format!("{:?}", e.label)))
                .collect();
            outputs.push(set);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
        assert_eq!(outputs[2], outputs[3]);
        assert!(!outputs[0].is_empty());
    }

    #[test]
    fn pruning_shrinks_candidate_counts() {
        let (_, dseq) = paper_dseq();
        let full = StpmMiner::mine_sequences(&dseq, &paper_config().with_pruning(PruningMode::All))
            .unwrap();
        let none =
            StpmMiner::mine_sequences(&dseq, &paper_config().with_pruning(PruningMode::NoPrune))
                .unwrap();
        assert!(full.stats().total_candidate_patterns() <= none.stats().total_candidate_patterns());
        assert!(full.stats().candidate_events <= none.stats().candidate_events);
    }

    #[test]
    fn stats_are_populated() {
        let (_, dseq) = paper_dseq();
        let report = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        let stats = report.stats();
        assert_eq!(stats.num_granules, 14);
        assert_eq!(stats.num_events, 10);
        assert!(stats.candidate_events > 0);
        assert!(stats.peak_footprint_bytes > 0);
        assert!(!stats.levels.is_empty());
        assert_eq!(stats.levels[0].k, 2);
        assert!(stats.total_frequent_patterns() > 0);
    }

    #[test]
    fn max_pattern_len_one_mines_only_events() {
        let (_, dseq) = paper_dseq();
        let config = StpmConfig {
            max_pattern_len: 1,
            ..paper_config()
        };
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        assert!(report.patterns().is_empty());
        assert!(!report.events().is_empty());
    }

    #[test]
    fn strict_thresholds_yield_empty_output() {
        let (_, dseq) = paper_dseq();
        let config = StpmConfig {
            max_period: Threshold::Absolute(1),
            min_density: Threshold::Absolute(10),
            dist_interval: (1, 2),
            min_season: 5,
            ..paper_config()
        };
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        assert!(report.patterns().is_empty());
        assert!(report.events().is_empty());
    }

    #[test]
    fn epsilon_widens_or_preserves_the_output() {
        let (_, dseq) = paper_dseq();
        let strict = StpmMiner::mine_sequences(&dseq, &paper_config().with_epsilon(0)).unwrap();
        let tolerant = StpmMiner::mine_sequences(&dseq, &paper_config().with_epsilon(1)).unwrap();
        // With ε the relation classifier merges near-boundary cases; the
        // number of *distinct* patterns may change, but mining must still
        // succeed and find the headline pattern.
        assert!(strict.total_patterns() > 0);
        assert!(tolerant.total_patterns() > 0);
    }

    #[test]
    fn resolved_entry_point_matches_the_resolving_one() {
        let (_, dseq) = paper_dseq();
        let config = paper_config();
        let resolved = config.resolve(dseq.num_granules()).unwrap();
        let a = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        let b = StpmMiner::mine_sequences_resolved(&dseq, &resolved);
        assert_eq!(a.patterns().len(), b.patterns().len());
        assert_eq!(a.events().len(), b.events().len());
    }

    #[test]
    fn parallel_mining_is_identical_to_sequential() {
        // The sharded parallel path must be byte-identical to the sequential
        // one: same patterns, same order, same stats counters.
        let (_, dseq) = paper_dseq();
        for mode in PruningMode::all_modes() {
            let sequential =
                StpmMiner::mine_sequences(&dseq, &paper_config().with_pruning(mode)).unwrap();
            for threads in [2, 4, 7] {
                let parallel = StpmMiner::mine_sequences(
                    &dseq,
                    &paper_config().with_pruning(mode).with_threads(threads),
                )
                .unwrap();
                assert_eq!(parallel.patterns(), sequential.patterns());
                assert_eq!(parallel.events(), sequential.events());
                assert_eq!(
                    parallel.stats().levels,
                    sequential.stats().levels,
                    "level stats diverged with {threads} threads under {mode:?}"
                );
                assert_eq!(
                    parallel.stats().peak_footprint_bytes,
                    sequential.stats().peak_footprint_bytes
                );
            }
        }
    }

    fn assert_partition(ranges: &[Range<usize>], len: usize, max_shards: usize) {
        assert!(!ranges.is_empty());
        assert!(ranges.len() <= max_shards);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, len);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "ranges must be contiguous");
        }
        for range in ranges {
            assert!(!range.is_empty());
        }
    }

    #[test]
    fn pair_range_matches_naive_triangular_enumeration() {
        use stpm_timeseries::{SeriesId, SymbolId};
        for n in [0usize, 1, 2, 3, 5, 8] {
            let f1: Vec<EventLabel> = (0..n)
                .map(|i| EventLabel::new(SeriesId(i as u32), SymbolId(0)))
                .collect();
            let naive: Vec<(EventLabel, EventLabel)> = f1
                .iter()
                .enumerate()
                .flat_map(|(i, &ei)| f1.iter().skip(i + 1).map(move |&ej| (ei, ej)))
                .collect();
            let num_pairs = n * n.saturating_sub(1) / 2;
            assert_eq!(naive.len(), num_pairs);
            // The full range reproduces the enumeration; every sub-range is
            // the matching slice of it.
            let full: Vec<_> = pair_range(&f1, 0..num_pairs).collect();
            assert_eq!(full, naive);
            for start in 0..=num_pairs {
                for end in start..=num_pairs {
                    let sub: Vec<_> = pair_range(&f1, start..end).collect();
                    assert_eq!(sub, naive[start..end], "n={n} range={start}..{end}");
                }
            }
        }
    }

    #[test]
    fn pair_range_ending_on_the_last_triangle_row_is_complete() {
        use stpm_timeseries::{SeriesId, SymbolId};
        // n = 5 → 10 pairs; the last row holds the single pair (3, 4) at
        // flat index 9. Ranges that end exactly on the triangle's last row
        // (or exactly at its end) must enumerate every requested pair — the
        // pre-fix code could bail out of the row walk with pairs still
        // pending, silently truncating the shard.
        let f1: Vec<EventLabel> = (0..5)
            .map(|i| EventLabel::new(SeriesId(i as u32), SymbolId(0)))
            .collect();
        let full: Vec<_> = pair_range(&f1, 0..10).collect();
        assert_eq!(full.len(), 10);
        assert_eq!(full[9], (f1[3], f1[4]));
        // A range starting mid-triangle and ending exactly at the end.
        let tail: Vec<_> = pair_range(&f1, 7..10).collect();
        assert_eq!(tail, &full[7..10]);
        // A range that ends exactly on a row boundary (end of row 1 = flat
        // index 7) crosses the row-advance path on its final pair.
        let boundary: Vec<_> = pair_range(&f1, 4..7).collect();
        assert_eq!(boundary, &full[4..7]);
        // The last single-pair range alone.
        let last: Vec<_> = pair_range(&f1, 9..10).collect();
        assert_eq!(last, vec![(f1[3], f1[4])]);
    }

    #[test]
    fn balanced_ranges_cut_uniform_costs_evenly() {
        let ranges = balanced_ranges(&[1; 8], 4);
        assert_eq!(ranges, vec![0..2, 2..4, 4..6, 6..8]);
        assert_partition(&ranges, 8, 4);
    }

    #[test]
    fn balanced_ranges_isolate_heavy_items() {
        let costs = [1, 1, 1, 100, 1, 1, 1, 1];
        let ranges = balanced_ranges(&costs, 3);
        assert_partition(&ranges, costs.len(), 3);
        // The 100-cost item gets a shard of its own instead of dragging its
        // neighbours along.
        assert!(ranges.contains(&(3..4)));
    }

    #[test]
    fn balanced_ranges_cover_degenerate_inputs() {
        assert_partition(&balanced_ranges(&[5], 4), 1, 4);
        assert_partition(&balanced_ranges(&[0, 0, 0], 2), 3, 2);
        assert_partition(
            &balanced_ranges(&[3, 9, 2, 7, 1, 1, 4, 2, 8, 6], 10),
            10,
            10,
        );
        assert_partition(&balanced_ranges(&[3, 9, 2], 1), 3, 1);
    }

    #[test]
    fn more_threads_than_work_items_is_harmless() {
        let (_, dseq) = paper_dseq();
        let sequential = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        let oversubscribed =
            StpmMiner::mine_sequences(&dseq, &paper_config().with_threads(1024)).unwrap();
        assert_eq!(oversubscribed.patterns(), sequential.patterns());
    }

    #[test]
    fn relation_less_pairs_do_not_count_as_candidate_groups() {
        // A and B co-occur in every granule, but their instances only overlap
        // by 2 instants while d_o = 3, so no relation ever classifies. The
        // pair must not be registered as a level-2 candidate group (lazy
        // registration), even with retain_candidates disabled (NoPrune).
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let a = SymbolicSeries::from_labels(
            "A",
            &["1", "1", "1", "0", "1", "1", "1", "0"],
            alphabet.clone(),
        )
        .unwrap();
        let b =
            SymbolicSeries::from_labels("B", &["0", "1", "1", "1", "0", "1", "1", "1"], alphabet)
                .unwrap();
        let dseq = SymbolicDatabase::new(vec![a, b])
            .unwrap()
            .to_sequence_database(4)
            .unwrap();
        let config = StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(1),
            dist_interval: (1, 10),
            min_season: 1,
            min_overlap: 3,
            max_pattern_len: 2,
            pruning: PruningMode::NoPrune,
            ..StpmConfig::default()
        };
        // Six event pairs share support; every pair except {A:1, B:1}
        // classifies through Follows/Contains (one pattern each), while
        // {A:1, B:1} can only classify through Overlaps. With d_o = 3 it
        // classifies nothing and must not be registered as a group.
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        let level2 = report.stats().levels[0];
        assert_eq!(level2.candidate_patterns, 5);
        assert_eq!(
            level2.candidate_groups, 5,
            "a group without a single candidate pattern must not be counted"
        );
        assert_eq!(
            level2.candidate_groups, level2.candidate_patterns,
            "every registered group carries at least one candidate pattern"
        );

        // Lowering d_o back to 1 makes A:1 ≬ B:1 classify: the pair counts.
        let relaxed = StpmConfig {
            min_overlap: 1,
            ..config
        };
        let report = StpmMiner::mine_sequences(&dseq, &relaxed).unwrap();
        let level2 = report.stats().levels[0];
        assert_eq!(level2.candidate_patterns, 6);
        assert_eq!(level2.candidate_groups, 6);
    }

    #[test]
    fn peak_footprint_tracks_live_levels_not_their_sum() {
        // With max_pattern_len = 3 the live set is at most
        // HLH_1 + HLH_2 + HLH_3, so the peak is bounded by the sum of the
        // level footprints and must be at least the largest live set.
        let (_, dseq) = paper_dseq();
        let report = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        let stats = report.stats();
        let level_sum: usize = stats.levels.iter().map(|l| l.footprint_bytes).sum();
        assert!(stats.peak_footprint_bytes > 0);
        // hlh1 + the adjacency matrix + all levels is the historical sum the
        // old accounting reported; the live peak can never exceed it. The
        // adjacency matrix is bounded by one bit row plus one label per
        // candidate event.
        let resolved = paper_config().resolve(dseq.num_granules()).unwrap();
        let hlh1 = Hlh1::build(&dseq, &resolved, true);
        let n = hlh1.len();
        let adjacency_bound =
            n * std::mem::size_of::<EventLabel>() + n * n.div_ceil(64) * std::mem::size_of::<u64>();
        assert!(stats.peak_footprint_bytes <= hlh1.footprint_bytes() + level_sum + adjacency_bound);
        assert!(stats.peak_footprint_bytes >= hlh1.footprint_bytes());
    }

    #[test]
    fn engine_trait_wraps_the_exact_miner() {
        use crate::engine::accuracy;
        let (dsyb, dseq) = paper_dseq();
        let input = MiningInput::new(&dsyb, &dseq, 3);
        let engine: &dyn MiningEngine = &StpmMiner;
        assert_eq!(engine.name(), "E-STPM");
        let report = engine.mine_with(&input, &paper_config()).unwrap();
        let direct = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        assert_eq!(report.total_patterns(), direct.total_patterns());
        assert_eq!(report.pruning().pruned_series.len(), 0);
        assert_eq!(report.pruning().kept_series.len(), 5);
        assert!(report.phase_time(phases::SINGLE_EVENTS) <= report.total_time());
        assert!(report.memory_bytes() > 0);
        assert!((accuracy(&report, &report) - 100.0).abs() < 1e-12);
        assert!(!report.pattern_set().is_empty());
    }
}
