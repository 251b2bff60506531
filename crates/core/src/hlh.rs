//! Hierarchical lookup hash structures `HLH_1` and `HLH_k` (Figures 4 and 5
//! of the paper), laid out for the hot path of the miner.
//!
//! * [`Hlh1`] plays the role of the single-event hash table `EH` plus the
//!   event-granule hash table `GH`: for each candidate event it stores the
//!   support set and, aligned with it, the event instances occurring in each
//!   supporting granule. Instances live in one flat array per event with a
//!   granule-offset array on top (a CSR layout), not in one vector per
//!   granule.
//! * [`HlhK`] combines the k-event hash table `EH_k`, the pattern hash table
//!   `PH_k` and the pattern-granule hash table `GH_k`. Groups and patterns
//!   are *interned*: each lives exactly once in an arena and is addressed by
//!   a compact [`GroupId`] / [`PatternId`] everywhere else. The hash indexes
//!   are keyed by packed `u64` buffers ([`encode_pattern_key`]), so an
//!   occurrence insert hashes a few machine words instead of a whole
//!   [`TemporalPattern`], and never clones the pattern. Instance bindings
//!   are stored in one flat [`EventInstance`] pool per level (every binding
//!   is `k` consecutive pool slots) with per-pattern offset arrays
//!   pattern → granule → binding-id slice on top — appending an occurrence
//!   is a bump-append, and reading the bindings of a granule is two offset
//!   lookups once the granule's position in the support set is known.
//!
//! The arena + index layout is what [`HlhK::merge_shards`] exploits to make
//! parallel mining byte-identical to sequential mining: per-shard ids are
//! remapped by a constant offset in shard order.
//!
//! Two reuse structures ride on `HLH_2` so that level k ≥ 3 never re-derives
//! what level 2 already computed:
//!
//! * [`RelationAdjacency`] — the level-2 relation graph as bitset rows over
//!   interned `F_1` label ids. The extension set of a (k−1)-group is the
//!   bitwise AND of its members' neighbor rows, and `has_relation_between`
//!   becomes a single bit test instead of a hash probe per member.
//! * [`VerdictTable`] — a CSR side table holding the classified relation
//!   verdict of every level-2 instance cross-product cell, addressed by
//!   (label pair, granule, instance-index pair). The k-event miner looks
//!   verdicts up instead of re-running the closed-form classifier on the
//!   same interval pairs; the classifier remains the fallback for cells the
//!   table does not cover.
//!
//! A level also comes in a *terminal* flavour ([`HlhK::new_terminal`]): the
//! per-combination structure the miner streams the last level of a run
//! through. The last level is never extended, so its instance bindings are
//! never read — a terminal structure keeps supports and patterns but skips
//! the binding pool entirely, and it holds one (k−1)-group × `E_k`
//! combination at a time, emptied by [`HlhK::clear`] for the next.
//!
//! # Validation & hot-path discipline
//!
//! The accessors above lean on layout invariants — monotone in-bounds CSR
//! offsets, index maps consistent with their arenas, exact pool slot
//! arithmetic — that [`Hlh1::validate`], [`HlhK::validate`] and
//! [`VerdictTable::validate`] check exhaustively (see the
//! [`invariants`](crate::invariants) module; the miner runs them at every
//! level boundary and on every streamed terminal combination under
//! `debug_assertions` or the `strict-invariants` feature). The
//! per-occurrence entry points (`instances_at_index`, `binding_ids_at`,
//! `push_verdict`, `add_pattern_occurrence`, …) are
//! marked `// lint: hot-path`: the project lint pass rejects any allocating
//! construct added to them, keeping occurrence inserts bump-appends and
//! granule reads two offset lookups.

use crate::config::ResolvedConfig;
use crate::fxhash::FxHashMap;
use crate::pattern::{encode_label, encode_pattern_key, TemporalPattern};
use crate::support::SupportSet;
use stpm_timeseries::{EventInstance, EventLabel, GranulePos, SequenceDatabase};

/// Compact identifier of a candidate group inside one [`HlhK`] (its index in
/// the group arena, in insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Compact identifier of a candidate pattern inside one [`HlhK`] (its index
/// in the pattern arena, in insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(pub u32);

/// Per-event entry of `HLH_1`: support set plus the instances per supporting
/// granule in a CSR layout — `instances_at_index(i)` is the slice of
/// instances occurring in granule `support[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventEntry {
    /// Sorted granule positions where the event occurs.
    pub support: SupportSet,
    /// All instances of the event, granule-major.
    instances: Vec<EventInstance>,
    /// `starts[i]` is the index in `instances` of the first instance of
    /// granule `support[i]`; the slice ends at `starts[i + 1]` (or the pool
    /// end for the last granule).
    starts: Vec<u32>,
}

impl EventEntry {
    /// Appends one instance, opening a new granule run when `granule` is new.
    /// Instances must arrive in non-decreasing granule order (one database
    /// scan provides exactly that).
    fn push(&mut self, granule: GranulePos, instance: EventInstance) {
        match self.support.last() {
            Some(&last) if last == granule => {}
            other => {
                debug_assert!(other.is_none_or(|&g| g < granule), "granules must ascend");
                self.support.push(granule);
                self.starts
                    .push(u32::try_from(self.instances.len()).expect("instance count fits u32"));
            }
        }
        self.instances.push(instance);
    }

    /// Instances of the event in granule `granule`, or an empty slice.
    #[must_use]
    pub fn instances_at(&self, granule: GranulePos) -> &[EventInstance] {
        match self.support.binary_search(&granule) {
            Ok(idx) => self.instances_at_index(idx),
            Err(_) => &[],
        }
    }

    /// Instances of the event in granule `support[idx]` — the two-offset
    /// lookup used when the caller already knows the granule's position in
    /// the support set (e.g. from an indexed intersection).
    #[must_use]
    // lint: hot-path
    pub fn instances_at_index(&self, idx: usize) -> &[EventInstance] {
        let start = self.starts[idx] as usize;
        let end = self
            .starts
            .get(idx + 1)
            .map_or(self.instances.len(), |&s| s as usize);
        &self.instances[start..end]
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.support.len() * std::mem::size_of::<GranulePos>()
            + self.instances.len() * std::mem::size_of::<EventInstance>()
            + self.starts.len() * std::mem::size_of::<u32>()
    }
}

/// The hierarchical lookup hash structure for single events (`HLH_1`).
#[derive(Debug, Clone, Default)]
pub struct Hlh1 {
    events: FxHashMap<EventLabel, EventEntry>,
    /// The candidate labels, sorted canonically — built once so `labels()`
    /// does not re-collect and re-sort the key set on every call.
    labels: Vec<EventLabel>,
}

impl Hlh1 {
    /// Scans `D_SEQ` once and builds `HLH_1`. When `candidates_only` is set
    /// (the Apriori-like pruning of E-STPM), only events whose `maxSeason`
    /// reaches `minSeason` are kept; otherwise every event with non-empty
    /// support is retained.
    #[must_use]
    pub fn build(dseq: &SequenceDatabase, config: &ResolvedConfig, candidates_only: bool) -> Self {
        let mut events: FxHashMap<EventLabel, EventEntry> = FxHashMap::default();
        for sequence in dseq.sequences() {
            let granule = sequence.granule();
            for instance in sequence.instances() {
                events
                    .entry(instance.label)
                    .or_default()
                    .push(granule, *instance);
            }
        }
        if candidates_only {
            events.retain(|_, entry| config.is_candidate(entry.support.len()));
        }
        // lint:allow(determinism): collected labels are sorted on the next line
        let mut labels: Vec<EventLabel> = events.keys().copied().collect();
        labels.sort_unstable();
        Self { events, labels }
    }

    /// The candidate event labels, sorted canonically (cached at build time).
    #[must_use]
    pub fn labels(&self) -> &[EventLabel] {
        &self.labels
    }

    /// Entry of one event label.
    #[must_use]
    pub fn entry(&self, label: EventLabel) -> Option<&EventEntry> {
        self.events.get(&label)
    }

    /// Support set of one event (empty when the event is not a candidate).
    #[must_use]
    pub fn support(&self, label: EventLabel) -> &[GranulePos] {
        self.events.get(&label).map_or(&[], |e| &e.support)
    }

    /// Instances of one event in one granule.
    #[must_use]
    pub fn instances_at(&self, label: EventLabel, granule: GranulePos) -> &[EventInstance] {
        self.events
            .get(&label)
            .map_or(&[] as &[EventInstance], |e| e.instances_at(granule))
    }

    /// Number of events held in the structure.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the structure is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Approximate heap footprint in bytes (reported by the memory
    /// experiments of Figures 9/10/19/20).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<EventLabel>()
            + self
                .events
                .values() // lint:allow(determinism): commutative sum, order-insensitive
                .map(|entry| {
                    std::mem::size_of::<EventLabel>()
                        + std::mem::size_of::<EventEntry>()
                        + entry.footprint_bytes()
                })
                .sum::<usize>()
    }
}

/// Per-pattern entry of `HLH_k`: the pattern (stored exactly once — the
/// arena is the owner, the index maps only hold packed keys), its support
/// set, and the CSR offsets of its bindings in the level's instance pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternEntry {
    /// The candidate pattern.
    pub pattern: TemporalPattern,
    /// Sorted granule positions where the pattern occurs.
    pub support: SupportSet,
    /// `granule_starts[i]` is the index in `bindings` of the first binding
    /// of granule `support[i]`.
    granule_starts: Vec<u32>,
    /// Binding ids (into the level's pool, `k` slots each), granule-major.
    bindings: Vec<u32>,
}

impl PatternEntry {
    /// Total number of occurrences (bindings) of the pattern.
    #[must_use]
    pub fn num_bindings(&self) -> usize {
        self.bindings.len()
    }

    /// The binding ids of granule `support[idx]` — a two-offset lookup for
    /// callers that located the granule via an indexed intersection. Resolve
    /// each id to its instance slice with [`HlhK::binding`]. Empty in a
    /// terminal structure, which records no bindings.
    #[must_use]
    // lint: hot-path
    pub fn binding_ids_at_index(&self, idx: usize) -> &[u32] {
        if self.granule_starts.is_empty() {
            return &[];
        }
        let start = self.granule_starts[idx] as usize;
        let end = self
            .granule_starts
            .get(idx + 1)
            .map_or(self.bindings.len(), |&s| s as usize);
        &self.bindings[start..end]
    }

    /// The binding ids of one granule (empty when the granule does not
    /// support the pattern).
    #[must_use]
    // lint: hot-path
    pub fn binding_ids_at(&self, granule: GranulePos) -> &[u32] {
        match self.support.binary_search(&granule) {
            Ok(idx) => self.binding_ids_at_index(idx),
            Err(_) => &[],
        }
    }

    /// Approximate heap footprint in bytes (pool slots are accounted by the
    /// level, not per pattern).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.support.len() * std::mem::size_of::<GranulePos>()
            + self.granule_starts.len() * std::mem::size_of::<u32>()
            + self.bindings.len() * std::mem::size_of::<u32>()
            + std::mem::size_of_val(self.pattern.events())
            + self.pattern.triples().len() * 4
    }
}

/// Per-group entry of `HLH_k`: the sorted event group (owned by the arena),
/// its support set, and the ids of its candidate patterns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroupEntry {
    /// The group's events, sorted canonically.
    pub events: Vec<EventLabel>,
    /// The support set of the event group.
    pub support: SupportSet,
    /// Ids of the group's candidate patterns in the pattern arena.
    pub patterns: Vec<PatternId>,
}

/// The level-2 relation graph as a bitset adjacency matrix over interned
/// `F_1` label ids (the indices of the sorted candidate-label list).
///
/// Row `i` has bit `j` set iff some candidate 2-pattern relates labels `i`
/// and `j`. Built once after level 2, it turns the per-member
/// `has_relation_between` hash probes of the transitivity pruning (Lemma 4)
/// into one bitwise AND over the members' rows: the surviving bits *are* the
/// extension candidates, so the per-group `F_1` scan disappears with them.
#[derive(Debug, Clone, Default)]
pub struct RelationAdjacency {
    /// The interned labels, sorted canonically — bit/row `i` is `labels[i]`.
    labels: Vec<EventLabel>,
    /// `u64` words per row.
    words_per_row: usize,
    /// Row-major bit matrix, `labels.len() * words_per_row` words.
    bits: Vec<u64>,
}

impl RelationAdjacency {
    /// Builds the adjacency matrix of one `HLH_2` over the sorted candidate
    /// labels `labels` (every event of every level-2 group must appear in
    /// `labels`). Groups whose pattern list is empty contribute no edge —
    /// matching [`HlhK::has_relation_between`].
    #[must_use]
    pub fn build(hlh2: &HlhK, labels: &[EventLabel]) -> Self {
        debug_assert_eq!(hlh2.k, 2, "adjacency is derived from HLH_2");
        debug_assert!(labels.windows(2).all(|w| w[0] < w[1]), "labels are sorted");
        let n = labels.len();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; n * words_per_row];
        for group in &hlh2.groups {
            if group.patterns.is_empty() {
                continue;
            }
            let i = labels
                .binary_search(&group.events[0])
                .expect("group events come from the candidate labels");
            let j = labels
                .binary_search(&group.events[1])
                .expect("group events come from the candidate labels");
            bits[i * words_per_row + j / 64] |= 1 << (j % 64);
            bits[j * words_per_row + i / 64] |= 1 << (i % 64);
        }
        Self {
            labels: labels.to_vec(),
            words_per_row,
            bits,
        }
    }

    /// Number of interned labels (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the matrix holds no labels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The interned id of a label, if it is a candidate.
    #[must_use]
    pub fn index_of(&self, label: EventLabel) -> Option<usize> {
        self.labels.binary_search(&label).ok()
    }

    /// The label of one interned id.
    #[must_use]
    pub fn label(&self, id: usize) -> EventLabel {
        self.labels[id]
    }

    /// The neighbor row of label id `id`.
    #[must_use]
    // lint: hot-path
    pub fn row(&self, id: usize) -> &[u64] {
        &self.bits[id * self.words_per_row..][..self.words_per_row]
    }

    /// Whether a candidate 2-pattern relates the labels with ids `i` and `j`
    /// — the transitivity lookup as a single bit test.
    #[must_use]
    // lint: hot-path
    pub fn has_relation_between(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words_per_row + j / 64] & (1 << (j % 64)) != 0
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<EventLabel>()
            + self.bits.len() * std::mem::size_of::<u64>()
    }
}

/// CSR side table of the level-2 relation verdicts: for every processed
/// candidate pair, for every shared granule, the packed
/// [`encode_verdict`](crate::relation::encode_verdict) byte of every instance
/// cross-product cell, row-major (`first-event instance × second-event
/// instance` in the granule's `HLH_1` slice order).
///
/// Level k ≥ 3 classifies the *same* interval pairs level 2 already decided
/// — the member of a (k−1)-binding against the extension event's instances.
/// The table makes that a byte load: pair → (hash probe once per group ×
/// extension), granule → (binary search once per granule), cell → offset
/// arithmetic.
#[derive(Debug, Clone, Default)]
pub struct VerdictTable {
    /// Canonically ordered packed label pair → pair slot.
    pair_index: FxHashMap<[u64; 2], u32>,
    /// `pair_starts[p]` is the first granule slot of pair `p`; the range
    /// ends at `pair_starts[p + 1]` (or `granules.len()` for the last pair).
    pair_starts: Vec<u32>,
    /// Granule positions, concatenated per pair (sorted within each pair).
    granules: Vec<GranulePos>,
    /// `block_starts[g]` is the first byte of granule slot `g`'s verdict
    /// block; blocks are contiguous, so the block ends at the next start.
    block_starts: Vec<u32>,
    /// The verdict bytes of every block, concatenated.
    verdicts: Vec<u8>,
}

impl VerdictTable {
    fn pair_key(a: EventLabel, b: EventLabel) -> [u64; 2] {
        if a <= b {
            [encode_label(a), encode_label(b)]
        } else {
            [encode_label(b), encode_label(a)]
        }
    }

    /// Opens recording for a pair (its granules and blocks must then arrive
    /// in ascending granule order). Each pair must be recorded exactly once.
    pub fn begin_pair(&mut self, a: EventLabel, b: EventLabel) {
        let slot = u32::try_from(self.pair_starts.len()).expect("pair count fits u32");
        let previous = self.pair_index.insert(Self::pair_key(a, b), slot);
        debug_assert!(previous.is_none(), "pair recorded twice");
        self.pair_starts
            .push(u32::try_from(self.granules.len()).expect("granule slots fit u32"));
    }

    /// Opens the verdict block of the current pair's next granule.
    pub fn begin_granule(&mut self, granule: GranulePos) {
        self.granules.push(granule);
        self.block_starts
            .push(u32::try_from(self.verdicts.len()).expect("verdict bytes fit u32"));
    }

    /// Appends one verdict byte to the current block (row-major cell order).
    // lint: hot-path
    pub fn push_verdict(&mut self, verdict: u8) {
        self.verdicts.push(verdict);
    }

    /// The recorded verdicts of one label pair (order-insensitive), if the
    /// pair was processed at level 2.
    #[must_use]
    // lint: hot-path
    pub fn pair(&self, a: EventLabel, b: EventLabel) -> Option<PairVerdicts<'_>> {
        let &slot = self.pair_index.get(&Self::pair_key(a, b))?;
        let start = self.pair_starts[slot as usize] as usize;
        let end = self
            .pair_starts
            .get(slot as usize + 1)
            .map_or(self.granules.len(), |&s| s as usize);
        Some(PairVerdicts {
            table: self,
            start,
            end,
        })
    }

    /// Number of recorded pairs.
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.pair_starts.len()
    }

    /// Whether the table holds no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pair_starts.is_empty()
    }

    /// Concatenates another table's rows after this one's (shards partition
    /// the pair space, so keys never collide).
    fn merge_from(&mut self, shard: VerdictTable) {
        let pair_offset = u32::try_from(self.pair_starts.len()).expect("pair count fits u32");
        let granule_offset = u32::try_from(self.granules.len()).expect("granule slots fit u32");
        let verdict_offset = u32::try_from(self.verdicts.len()).expect("verdict bytes fit u32");
        for (key, slot) in shard.pair_index {
            let previous = self.pair_index.insert(key, slot + pair_offset);
            assert!(previous.is_none(), "verdict pair produced by two shards");
        }
        self.pair_starts
            .extend(shard.pair_starts.iter().map(|&s| s + granule_offset));
        self.granules.extend_from_slice(&shard.granules);
        self.block_starts
            .extend(shard.block_starts.iter().map(|&s| s + verdict_offset));
        self.verdicts.extend_from_slice(&shard.verdicts);
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.pair_index.len() * std::mem::size_of::<[u64; 2]>()
            + self.pair_starts.len() * std::mem::size_of::<u32>()
            + self.granules.len() * std::mem::size_of::<GranulePos>()
            + self.block_starts.len() * std::mem::size_of::<u32>()
            + self.verdicts.len()
    }
}

/// The recorded verdict blocks of one label pair — a window into the
/// [`VerdictTable`].
#[derive(Debug, Clone, Copy)]
pub struct PairVerdicts<'a> {
    table: &'a VerdictTable,
    /// First granule slot of the pair.
    start: usize,
    /// One past the pair's last granule slot.
    end: usize,
}

impl<'a> PairVerdicts<'a> {
    /// The verdict block of one granule: the row-major bytes of the
    /// instance cross-product, or `None` when the granule was not processed
    /// for this pair. Index cell `(i, j)` as `block[i * cols + j]`, where
    /// `cols` is the second (larger-label) event's instance count in the
    /// granule.
    #[must_use]
    // lint: hot-path
    pub fn block(&self, granule: GranulePos) -> Option<&'a [u8]> {
        let granules = &self.table.granules[self.start..self.end];
        let idx = self.start + granules.binary_search(&granule).ok()?;
        let start = self.table.block_starts[idx] as usize;
        let end = self
            .table
            .block_starts
            .get(idx + 1)
            .map_or(self.table.verdicts.len(), |&s| s as usize);
        Some(&self.table.verdicts[start..end])
    }

    /// Whether the pair relates anywhere in `granule`'s block: `Some(true)`
    /// when at least one cell holds a relation verdict, `Some(false)` when
    /// the whole cross-product classified to no relation (so no candidate
    /// binding through this pair can extend at the granule), `None` when
    /// the granule was not processed for this pair. The scan runs through
    /// the dispatched [`crate::simd`] byte-scan kernel (32 cells per
    /// compare on AVX2).
    #[must_use]
    // lint: hot-path
    pub fn block_has_relation(&self, granule: GranulePos) -> Option<bool> {
        self.block(granule)
            .map(|block| crate::simd::kernels().verdict_any(block))
    }
}

/// The hierarchical lookup hash structure for k-event groups and patterns
/// (`HLH_k`, k ≥ 2).
#[derive(Debug, Clone, Default)]
pub struct HlhK {
    k: usize,
    /// Group arena, in insertion order.
    groups: Vec<GroupEntry>,
    /// Packed event labels → group id.
    group_index: FxHashMap<Box<[u64]>, GroupId>,
    /// Pattern arena, in insertion order.
    patterns: Vec<PatternEntry>,
    /// Packed pattern key → pattern id.
    pattern_index: FxHashMap<Box<[u64]>, PatternId>,
    /// Flat instance pool: binding `b` occupies slots `b*k .. (b+1)*k`.
    /// Empty for terminal structures, which record no bindings at all.
    pool: Vec<EventInstance>,
    /// Whether occurrences append their binding to the pool. `false` for the
    /// terminal structure: no later level reads its bindings.
    record_bindings: bool,
    /// Level-2 relation verdicts (empty unless this is a non-terminal
    /// `HLH_2` mined with verdict recording).
    verdicts: VerdictTable,
}

impl HlhK {
    /// Creates an empty structure for k-event groups.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            k,
            groups: Vec::new(),
            group_index: FxHashMap::default(),
            patterns: Vec::new(),
            pattern_index: FxHashMap::default(),
            pool: Vec::new(),
            record_bindings: true,
            verdicts: VerdictTable::default(),
        }
    }

    /// Creates an empty *terminal* structure: occurrences are counted into
    /// the supports as usual, but no binding is appended to the instance
    /// pool. The miner streams `k == maxPatternLen` through one such
    /// structure per shard, reused for every (k−1)-group × `E_k`
    /// combination (every level-2 pair at k = 2): it is filled with one
    /// combination, gated, emitted and emptied with [`clear`](Self::clear),
    /// so the last level never exists as a whole. Nothing ever reads the
    /// last level's bindings, and the pool is where most of a level's
    /// footprint lives.
    #[must_use]
    pub fn new_terminal(k: usize) -> Self {
        Self {
            record_bindings: false,
            ..Self::new(k)
        }
    }

    /// The `k` of this level.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The level-2 relation verdict side table (empty for k ≥ 3 levels and
    /// for runs that never reach level 3).
    #[must_use]
    pub fn verdict_table(&self) -> &VerdictTable {
        &self.verdicts
    }

    /// Mutable access to the verdict side table, for the level-2 miner to
    /// record into.
    #[must_use]
    pub fn verdict_table_mut(&mut self) -> &mut VerdictTable {
        &mut self.verdicts
    }

    fn encode_group(members: &[EventLabel]) -> Box<[u64]> {
        members.iter().copied().map(encode_label).collect()
    }

    /// Registers a candidate k-event group with its support set and returns
    /// its id (the existing id when the group is already registered).
    pub fn insert_group(&mut self, events: Vec<EventLabel>, support: SupportSet) -> GroupId {
        let key = Self::encode_group(&events);
        if let Some(&id) = self.group_index.get(&key) {
            return id;
        }
        let id = GroupId(u32::try_from(self.groups.len()).expect("group count fits u32"));
        self.group_index.insert(key, id);
        self.groups.push(GroupEntry {
            events,
            support,
            patterns: Vec::new(),
        });
        id
    }

    /// The candidate k-event groups, sorted canonically by their events.
    #[must_use]
    pub fn groups(&self) -> Vec<&GroupEntry> {
        let mut groups: Vec<&GroupEntry> = self.groups.iter().collect();
        groups.sort_by(|a, b| a.events.cmp(&b.events));
        groups
    }

    /// Entry of one group, looked up by its event list.
    #[must_use]
    pub fn group(&self, events: &[EventLabel]) -> Option<&GroupEntry> {
        self.group_index
            .get(&Self::encode_group(events))
            .map(|&id| &self.groups[id.0 as usize])
    }

    /// Entry of one pattern id.
    #[must_use]
    pub fn pattern(&self, id: PatternId) -> &PatternEntry {
        &self.patterns[id.0 as usize]
    }

    /// The instance slice of one binding id.
    #[must_use]
    // lint: hot-path
    pub fn binding(&self, id: u32) -> &[EventInstance] {
        &self.pool[id as usize * self.k..][..self.k]
    }

    /// The bindings of pattern `id` in `granule`, as instance slices.
    pub fn bindings_at(
        &self,
        id: PatternId,
        granule: GranulePos,
    ) -> impl Iterator<Item = &[EventInstance]> + '_ {
        self.pattern(id)
            .binding_ids_at(granule)
            .iter()
            .map(move |&b| self.binding(b))
    }

    /// Adds one occurrence of the candidate pattern identified by `key` (its
    /// packed interning key) to `group`. The binding is `prefix` followed by
    /// `last` — the pool append copies the instances, so callers extend a
    /// (k-1)-binding slice without materialising an owned vector.
    /// `make_pattern` is invoked only when the key is new; the constructed
    /// pattern is stored once in the arena and never cloned.
    ///
    /// Occurrences of one pattern must arrive in non-decreasing granule
    /// order (level mining scans granules in order per candidate).
    // lint: hot-path
    pub fn add_pattern_occurrence<F>(
        &mut self,
        group: GroupId,
        key: &[u64],
        make_pattern: F,
        granule: GranulePos,
        prefix: &[EventInstance],
        last: EventInstance,
    ) -> PatternId
    where
        F: FnOnce() -> TemporalPattern,
    {
        debug_assert_eq!(prefix.len() + 1, self.k, "binding length must be k");
        let id = match self.pattern_index.get(key) {
            Some(&id) => id,
            None => {
                let id = PatternId(u32::try_from(self.patterns.len()).expect("patterns fit u32"));
                let pattern = make_pattern();
                debug_assert_eq!(
                    encode_pattern_key(&pattern),
                    key,
                    "interning key must encode the constructed pattern"
                );
                self.patterns.push(PatternEntry {
                    pattern,
                    // lint:allow(hot-path-alloc): first-occurrence arm
                    support: Vec::new(),
                    // lint:allow(hot-path-alloc): first-occurrence arm
                    granule_starts: Vec::new(),
                    // lint:allow(hot-path-alloc): first-occurrence arm
                    bindings: Vec::new(),
                });
                self.pattern_index.insert(key.into(), id);
                self.groups[group.0 as usize].patterns.push(id);
                id
            }
        };
        let entry = &mut self.patterns[id.0 as usize];
        if self.record_bindings {
            let binding_id =
                u32::try_from(self.pool.len() / self.k).expect("binding count fits u32");
            self.pool.extend_from_slice(prefix);
            self.pool.push(last);
            match entry.support.last() {
                Some(&g) if g == granule => {}
                other => {
                    debug_assert!(other.is_none_or(|&g| g < granule), "granules must ascend");
                    entry.support.push(granule);
                    entry
                        .granule_starts
                        .push(u32::try_from(entry.bindings.len()).expect("bindings fit u32"));
                }
            }
            entry.bindings.push(binding_id);
        } else {
            // Terminal level: only the support set is maintained.
            match entry.support.last() {
                Some(&g) if g == granule => {}
                other => {
                    debug_assert!(other.is_none_or(|&g| g < granule), "granules must ascend");
                    entry.support.push(granule);
                }
            }
        }
        id
    }

    /// Drops the candidate patterns that fail the `maxSeason` gate (applied
    /// after all occurrences of a group have been collected), together with
    /// any group whose pattern list becomes empty — such a group would never
    /// be extended again, so keeping it would only inflate `num_groups()` and
    /// `footprint_bytes()`. The instance pool is compacted alongside, which
    /// also makes every surviving pattern's bindings contiguous. Returns the
    /// number of patterns removed.
    pub fn retain_candidates(&mut self, config: &ResolvedConfig) -> usize {
        let keep: Vec<bool> = self
            .patterns
            .iter()
            .map(|entry| config.is_candidate(entry.support.len()))
            .collect();
        let removed = keep.iter().filter(|&&k| !k).count();
        if removed == 0 {
            return 0;
        }
        // Compact the pattern arena and the pool, remapping binding ids.
        let mut remap: Vec<Option<PatternId>> = vec![None; self.patterns.len()];
        let mut new_patterns = Vec::with_capacity(self.patterns.len() - removed);
        let mut new_pool = Vec::new();
        for (idx, mut entry) in self.patterns.drain(..).enumerate() {
            if !keep[idx] {
                continue;
            }
            remap[idx] = Some(PatternId(
                u32::try_from(new_patterns.len()).expect("patterns fit u32"),
            ));
            for binding in &mut entry.bindings {
                let old = *binding as usize * self.k;
                *binding = u32::try_from(new_pool.len() / self.k).expect("bindings fit u32");
                new_pool.extend_from_slice(&self.pool[old..old + self.k]);
            }
            new_patterns.push(entry);
        }
        self.patterns = new_patterns;
        self.pool = new_pool;
        self.pattern_index = self
            .patterns
            .iter()
            .enumerate()
            .map(|(i, e)| {
                (
                    encode_pattern_key(&e.pattern).into_boxed_slice(),
                    PatternId(u32::try_from(i).expect("patterns fit u32")),
                )
            })
            .collect();
        // Compact the group arena, dropping groups that lost every pattern.
        let mut new_groups = Vec::with_capacity(self.groups.len());
        for mut group in self.groups.drain(..) {
            group.patterns = group
                .patterns
                .iter()
                .filter_map(|id| remap[id.0 as usize])
                .collect();
            if !group.patterns.is_empty() {
                new_groups.push(group);
            }
        }
        self.groups = new_groups;
        self.group_index = self
            .groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                (
                    Self::encode_group(&g.events),
                    GroupId(u32::try_from(i).expect("groups fit u32")),
                )
            })
            .collect();
        removed
    }

    /// Empties the structure for reuse. Arenas, indexes and pool keep their
    /// capacity, so refilling allocates only what outgrows it. The streamed
    /// terminal level empties its per-combination structure with this after
    /// each combination.
    pub fn clear(&mut self) {
        self.groups.clear();
        self.group_index.clear();
        self.patterns.clear();
        self.pattern_index.clear();
        self.pool.clear();
        self.verdicts = VerdictTable::default();
    }

    /// Merges per-shard levels produced by parallel mining into one `HLH_k`,
    /// preserving shard order. Sharding partitions the candidate space so
    /// that every group (and therefore every pattern) is produced by exactly
    /// one shard; concatenating the arenas and the pools in shard order —
    /// remapping each shard's ids by a constant offset — makes the merged
    /// level identical to the one sequential mining builds. Only levels that
    /// record bindings are merged: the terminal level is streamed.
    ///
    /// # Panics
    /// Panics when two shards produced the same group or pattern — that
    /// would mean the shards did not partition the candidate space.
    #[must_use]
    pub fn merge_shards(k: usize, shards: Vec<HlhK>) -> Self {
        let mut merged = Self::new(k);
        for shard in shards {
            assert_eq!(shard.k, k, "cannot merge levels of different k");
            merged.verdicts.merge_from(shard.verdicts);
            let pattern_offset = u32::try_from(merged.patterns.len()).expect("patterns fit u32");
            let group_offset = u32::try_from(merged.groups.len()).expect("groups fit u32");
            let binding_offset =
                u32::try_from(merged.pool.len() / k.max(1)).expect("bindings fit u32");
            for (key, id) in shard.pattern_index {
                let previous = merged
                    .pattern_index
                    .insert(key, PatternId(id.0 + pattern_offset));
                assert!(previous.is_none(), "pattern produced by two shards");
            }
            for (key, id) in shard.group_index {
                let previous = merged.group_index.insert(key, GroupId(id.0 + group_offset));
                assert!(previous.is_none(), "group produced by two shards");
            }
            for mut entry in shard.patterns {
                for binding in &mut entry.bindings {
                    *binding += binding_offset;
                }
                merged.patterns.push(entry);
            }
            for mut group in shard.groups {
                for id in &mut group.patterns {
                    id.0 += pattern_offset;
                }
                merged.groups.push(group);
            }
            merged.pool.extend_from_slice(&shard.pool);
        }
        merged
    }

    /// The candidate pattern entries of this level, in insertion order.
    #[must_use]
    pub fn patterns(&self) -> &[PatternEntry] {
        &self.patterns
    }

    /// The pattern entries belonging to one group, looked up by its events.
    #[must_use]
    pub fn patterns_of_group(&self, events: &[EventLabel]) -> Vec<&PatternEntry> {
        self.group(events)
            .map(|g| g.patterns.iter().map(|&id| self.pattern(id)).collect())
            .unwrap_or_default()
    }

    /// Whether any candidate pattern of this level relates the two events
    /// (in either orientation). This is the lookup behind the transitivity
    /// pruning (Lemma 4) and the iterative verification of Section IV-D.
    /// The pair key is packed on the stack — no allocation per probe.
    #[must_use]
    pub fn has_relation_between(&self, a: EventLabel, b: EventLabel) -> bool {
        let key: [u64; 2] = if a <= b {
            [encode_label(a), encode_label(b)]
        } else {
            [encode_label(b), encode_label(a)]
        };
        self.group_index
            .get(&key[..])
            .is_some_and(|&id| !self.groups[id.0 as usize].patterns.is_empty())
    }

    /// Number of candidate groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of candidate patterns.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the level holds no candidate patterns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The distinct event labels participating in any candidate pattern of
    /// this level (used to build `FilteredF_1`).
    #[must_use]
    pub fn participating_events(&self) -> Vec<EventLabel> {
        let mut labels: Vec<EventLabel> = self
            .patterns
            .iter()
            .flat_map(|p| p.pattern.events().iter().copied())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Approximate heap footprint in bytes. Depends only on element counts
    /// (never on capacities or map layout), so the sequential and the merged
    /// parallel structures report identical footprints.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        let group_bytes: usize = self
            .groups
            .iter()
            .map(|entry| {
                entry.events.len() * std::mem::size_of::<EventLabel>()
                    + entry.support.len() * std::mem::size_of::<GranulePos>()
                    + entry.patterns.len() * std::mem::size_of::<PatternId>()
            })
            .sum();
        let pattern_bytes: usize = self
            .patterns
            .iter()
            .map(PatternEntry::footprint_bytes)
            .sum();
        let index_bytes: usize = self
            .group_index
            .keys() // lint:allow(determinism): commutative sum, order-insensitive
            .chain(self.pattern_index.keys()) // lint:allow(determinism): same commutative sum
            .map(|key| key.len() * std::mem::size_of::<u64>())
            .sum();
        group_bytes
            + pattern_bytes
            + index_bytes
            + self.pool.len() * std::mem::size_of::<EventInstance>()
            + self.verdicts.footprint_bytes()
    }
}

// ---------------------------------------------------------------------------
// Structural validation (see the `invariants` module). The walks below check
// every layout invariant the accessors rely on without bounds checks of
// their own design — CSR offsets monotone and in bounds, index maps
// consistent with their arenas, pool slot arithmetic exact. Validation
// outcome is order-insensitive, so iterating the hash indexes is sound.
// ---------------------------------------------------------------------------

use crate::invariants::{invariant, InvariantViolation};

fn ascends(values: &[GranulePos]) -> bool {
    values.windows(2).all(|w| w[0] < w[1])
}

impl Hlh1 {
    /// Validates the structural invariants of the table: the cached label
    /// list is sorted and mirrors the key set, every support set ascends
    /// strictly, and every CSR instance-offset array is monotone, in bounds
    /// and aligned with its support set.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found, if any.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        const S: &str = "Hlh1";
        invariant!(
            S,
            self.labels.windows(2).all(|w| w[0] < w[1]),
            "cached label list is not strictly sorted"
        );
        invariant!(
            S,
            self.labels.len() == self.events.len(),
            "label cache has {} labels but the table has {} entries",
            self.labels.len(),
            self.events.len()
        );
        for &label in &self.labels {
            let Some(entry) = self.events.get(&label) else {
                return Err(InvariantViolation::new(
                    S,
                    format!("cached label {label:?} has no table entry"),
                ));
            };
            invariant!(
                S,
                ascends(&entry.support),
                "support of {label:?} is not strictly ascending"
            );
            invariant!(
                S,
                entry.starts.len() == entry.support.len(),
                "entry of {label:?} has {} granule offsets for {} supporting granules",
                entry.starts.len(),
                entry.support.len()
            );
            invariant!(
                S,
                entry.starts.first().is_none_or(|&s| s == 0),
                "instance offsets of {label:?} do not start at 0"
            );
            invariant!(
                S,
                entry.starts.windows(2).all(|w| w[0] < w[1]),
                "instance offsets of {label:?} are not strictly ascending (every granule run is non-empty)"
            );
            invariant!(
                S,
                entry
                    .starts
                    .last()
                    .is_none_or(|&s| (s as usize) < entry.instances.len()),
                "instance offsets of {label:?} point past the instance pool"
            );
            invariant!(
                S,
                entry.support.is_empty() == entry.instances.is_empty(),
                "entry of {label:?} has granules without instances (or vice versa)"
            );
        }
        Ok(())
    }
}

impl VerdictTable {
    /// Validates the block shape of the table: the pair index is a
    /// permutation of the pair slots, the pair→granule and granule→byte
    /// offset arrays are monotone and in bounds, and granules ascend
    /// strictly within each pair.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found, if any.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        const S: &str = "VerdictTable";
        invariant!(
            S,
            self.pair_index.len() == self.pair_starts.len(),
            "pair index has {} keys for {} pair slots",
            self.pair_index.len(),
            self.pair_starts.len()
        );
        let mut seen = vec![false; self.pair_starts.len()];
        // lint:allow(determinism): order-insensitive validation conjunction
        for &slot in self.pair_index.values() {
            invariant!(
                S,
                (slot as usize) < self.pair_starts.len(),
                "pair slot {slot} out of range"
            );
            invariant!(
                S,
                !std::mem::replace(&mut seen[slot as usize], true),
                "pair slot {slot} indexed twice"
            );
        }
        invariant!(
            S,
            self.pair_starts.windows(2).all(|w| w[0] <= w[1]),
            "pair→granule offsets are not monotone"
        );
        invariant!(
            S,
            self.pair_starts
                .last()
                .is_none_or(|&s| (s as usize) <= self.granules.len()),
            "pair→granule offsets point past the granule slots"
        );
        invariant!(
            S,
            self.block_starts.len() == self.granules.len(),
            "{} verdict blocks for {} granule slots",
            self.block_starts.len(),
            self.granules.len()
        );
        invariant!(
            S,
            self.block_starts.windows(2).all(|w| w[0] <= w[1]),
            "granule→byte offsets are not monotone"
        );
        invariant!(
            S,
            self.block_starts
                .last()
                .is_none_or(|&s| (s as usize) <= self.verdicts.len()),
            "granule→byte offsets point past the verdict bytes"
        );
        for (slot, &start) in self.pair_starts.iter().enumerate() {
            let end = self
                .pair_starts
                .get(slot + 1)
                .map_or(self.granules.len(), |&s| s as usize);
            invariant!(
                S,
                ascends(&self.granules[start as usize..end]),
                "granules of pair slot {slot} are not strictly ascending"
            );
        }
        Ok(())
    }
}

impl HlhK {
    /// Validates the structural invariants of the level: arena/index
    /// consistency for groups and patterns (each index is a permutation of
    /// its arena, and every key re-encodes its entry), strictly ascending
    /// support sets, monotone in-bounds binding CSR offsets, exact pool slot
    /// arithmetic, and the [`VerdictTable`] block shape.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found, if any.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        const S: &str = "HlhK";
        invariant!(S, self.k >= 2, "level arity {} below 2", self.k);
        self.validate_groups()?;
        self.validate_patterns()?;
        invariant!(
            S,
            self.pool.len().is_multiple_of(self.k),
            "pool length {} is not a multiple of k={}",
            self.pool.len(),
            self.k
        );
        invariant!(
            S,
            self.record_bindings || self.pool.is_empty(),
            "terminal level carries {} pool slots",
            self.pool.len()
        );
        self.verdicts.validate()
    }

    fn validate_groups(&self) -> Result<(), InvariantViolation> {
        const S: &str = "HlhK";
        invariant!(
            S,
            self.group_index.len() == self.groups.len(),
            "group index has {} keys for {} arena entries",
            self.group_index.len(),
            self.groups.len()
        );
        let mut seen = vec![false; self.groups.len()];
        // lint:allow(determinism): order-insensitive validation conjunction
        for (key, &id) in &self.group_index {
            let Some(group) = self.groups.get(id.0 as usize) else {
                return Err(InvariantViolation::new(
                    S,
                    format!("group id {} out of range", id.0),
                ));
            };
            invariant!(
                S,
                !std::mem::replace(&mut seen[id.0 as usize], true),
                "group id {} indexed twice",
                id.0
            );
            invariant!(
                S,
                Self::encode_group(&group.events) == *key,
                "group index key does not re-encode group {}",
                id.0
            );
        }
        for (idx, group) in self.groups.iter().enumerate() {
            invariant!(
                S,
                group.events.len() == self.k,
                "group {idx} has {} events at level k={}",
                group.events.len(),
                self.k
            );
            invariant!(
                S,
                group.events.windows(2).all(|w| w[0] < w[1]),
                "events of group {idx} are not canonically sorted"
            );
            invariant!(
                S,
                ascends(&group.support),
                "support of group {idx} is not strictly ascending"
            );
            for &pid in &group.patterns {
                let Some(entry) = self.patterns.get(pid.0 as usize) else {
                    return Err(InvariantViolation::new(
                        S,
                        format!("group {idx} lists pattern id {} out of range", pid.0),
                    ));
                };
                invariant!(
                    S,
                    entry.pattern.events() == group.events.as_slice(),
                    "pattern {} listed under group {idx} has different events",
                    pid.0
                );
            }
        }
        Ok(())
    }

    fn validate_patterns(&self) -> Result<(), InvariantViolation> {
        const S: &str = "HlhK";
        invariant!(
            S,
            self.pattern_index.len() == self.patterns.len(),
            "pattern index has {} keys for {} arena entries",
            self.pattern_index.len(),
            self.patterns.len()
        );
        let mut seen = vec![false; self.patterns.len()];
        // lint:allow(determinism): order-insensitive validation conjunction
        for (key, &id) in &self.pattern_index {
            let Some(entry) = self.patterns.get(id.0 as usize) else {
                return Err(InvariantViolation::new(
                    S,
                    format!("pattern id {} out of range", id.0),
                ));
            };
            invariant!(
                S,
                !std::mem::replace(&mut seen[id.0 as usize], true),
                "pattern id {} indexed twice",
                id.0
            );
            invariant!(
                S,
                encode_pattern_key(&entry.pattern) == **key,
                "pattern index key does not re-encode pattern {}",
                id.0
            );
        }
        let num_bindings = self.pool.len().checked_div(self.k).unwrap_or(0);
        for (idx, entry) in self.patterns.iter().enumerate() {
            invariant!(
                S,
                ascends(&entry.support),
                "support of pattern {idx} is not strictly ascending"
            );
            if !self.record_bindings {
                invariant!(
                    S,
                    entry.granule_starts.is_empty() && entry.bindings.is_empty(),
                    "terminal level records bindings for pattern {idx}"
                );
                continue;
            }
            invariant!(
                S,
                entry.granule_starts.len() == entry.support.len(),
                "pattern {idx} has {} binding offsets for {} supporting granules",
                entry.granule_starts.len(),
                entry.support.len()
            );
            invariant!(
                S,
                entry.granule_starts.first().is_none_or(|&s| s == 0),
                "binding offsets of pattern {idx} do not start at 0"
            );
            invariant!(
                S,
                entry.granule_starts.windows(2).all(|w| w[0] < w[1]),
                "binding offsets of pattern {idx} are not strictly ascending"
            );
            invariant!(
                S,
                entry
                    .granule_starts
                    .last()
                    .is_none_or(|&s| (s as usize) < entry.bindings.len()),
                "binding offsets of pattern {idx} point past the binding list"
            );
            invariant!(
                S,
                entry.bindings.windows(2).all(|w| w[0] < w[1]),
                "binding ids of pattern {idx} are not strictly ascending"
            );
            invariant!(
                S,
                entry
                    .bindings
                    .last()
                    .is_none_or(|&b| (b as usize) < num_bindings),
                "pattern {idx} binds pool slots past the pool end"
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StpmConfig, Threshold};
    use crate::relation::RelationKind;
    use stpm_timeseries::{
        Alphabet, Interval, SeriesId, SymbolId, SymbolicDatabase, SymbolicSeries,
    };

    fn config(min_density: u64, min_season: u64) -> ResolvedConfig {
        StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(min_density),
            dist_interval: (1, 50),
            min_season,
            ..StpmConfig::default()
        }
        .resolve(100)
        .unwrap()
    }

    fn small_dseq() -> SequenceDatabase {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let c = SymbolicSeries::from_labels(
            "C",
            &["1", "1", "0", "1", "0", "0", "0", "0", "0"],
            alphabet.clone(),
        )
        .unwrap();
        let d = SymbolicSeries::from_labels(
            "D",
            &["1", "0", "0", "1", "1", "0", "0", "0", "0"],
            alphabet,
        )
        .unwrap();
        SymbolicDatabase::new(vec![c, d])
            .unwrap()
            .to_sequence_database(3)
            .unwrap()
    }

    fn label(series: u32, symbol: u16) -> EventLabel {
        EventLabel::new(SeriesId(series), SymbolId(symbol))
    }

    /// Adds one occurrence the way the miner does: key + constructor.
    fn add(
        hlh: &mut HlhK,
        group: GroupId,
        pattern: &TemporalPattern,
        granule: GranulePos,
        binding: &[EventInstance],
    ) -> PatternId {
        let key = encode_pattern_key(pattern);
        let (prefix, last) = binding.split_at(binding.len() - 1);
        hlh.add_pattern_occurrence(group, &key, || pattern.clone(), granule, prefix, last[0])
    }

    #[test]
    fn hlh1_build_collects_support_and_instances() {
        let dseq = small_dseq();
        let hlh1 = Hlh1::build(&dseq, &config(1, 1), false);
        // Events: C:0, C:1, D:0, D:1.
        assert_eq!(hlh1.len(), 4);
        assert!(!hlh1.is_empty());
        let c1 = label(0, 1);
        assert_eq!(hlh1.support(c1), &[1, 2]);
        assert_eq!(hlh1.instances_at(c1, 1).len(), 1);
        assert_eq!(hlh1.instances_at(c1, 1)[0].interval, Interval::new(1, 2));
        assert_eq!(hlh1.instances_at(c1, 3).len(), 0);
        assert!(hlh1.entry(c1).is_some());
        assert!(hlh1.entry(label(5, 0)).is_none());
        assert!(hlh1.footprint_bytes() > 0);
        // The cached label list is sorted and complete.
        assert_eq!(hlh1.labels().len(), 4);
        assert!(hlh1.labels().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn hlh1_candidate_filter_drops_rare_events() {
        let dseq = small_dseq();
        // minDensity 2, minSeason 2 → an event needs support >= 4 to be a candidate.
        let cfg = config(2, 2);
        let all = Hlh1::build(&dseq, &cfg, false);
        let filtered = Hlh1::build(&dseq, &cfg, true);
        assert!(filtered.len() < all.len());
        // C:0 occurs in granules 1, 2, 3 (support 3 < 4) → pruned.
        assert!(filtered.entry(label(0, 0)).is_none());
        // Support lookups for pruned events return the empty slice.
        assert!(filtered.support(label(0, 0)).is_empty());
        // The label cache reflects the filtering.
        assert_eq!(filtered.labels().len(), filtered.len());
        assert!(!filtered.labels().contains(&label(0, 0)));
    }

    #[test]
    fn hlh1_multiple_instances_in_one_granule() {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        // 1,0,1 inside a single granule → two instances of C:1 at granule 1.
        let c = SymbolicSeries::from_labels("C", &["1", "0", "1"], alphabet).unwrap();
        let dseq = SymbolicDatabase::new(vec![c])
            .unwrap()
            .to_sequence_database(3)
            .unwrap();
        let hlh1 = Hlh1::build(&dseq, &config(1, 1), false);
        let entry = hlh1.entry(label(0, 1)).unwrap();
        assert_eq!(hlh1.instances_at(label(0, 1), 1).len(), 2);
        assert_eq!(entry.instances_at_index(0).len(), 2);
    }

    #[test]
    fn hlhk_group_and_pattern_bookkeeping() {
        let cfg = config(1, 1);
        let mut hlh2 = HlhK::new(2);
        assert_eq!(hlh2.k(), 2);
        let group = vec![label(0, 1), label(1, 1)];
        let gid = hlh2.insert_group(group.clone(), vec![1, 2, 4]);
        // Re-registering returns the same id.
        assert_eq!(hlh2.insert_group(group.clone(), vec![9]), gid);
        assert_eq!(hlh2.num_groups(), 1);
        assert!(hlh2.group(&group).is_some());
        assert_eq!(hlh2.group(&group).unwrap().support, vec![1, 2, 4]);
        assert!(hlh2.group(&[label(0, 0)]).is_none());

        let pattern =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);
        let binding = [
            EventInstance::new(label(0, 1), Interval::new(1, 2)),
            EventInstance::new(label(1, 1), Interval::new(1, 1)),
        ];
        let pid = add(&mut hlh2, gid, &pattern, 1, &binding);
        assert_eq!(add(&mut hlh2, gid, &pattern, 1, &binding), pid);
        assert_eq!(add(&mut hlh2, gid, &pattern, 4, &binding), pid);

        assert_eq!(hlh2.num_patterns(), 1);
        let entry = hlh2.pattern(pid);
        assert_eq!(entry.support, vec![1, 4]);
        assert_eq!(entry.num_bindings(), 3);
        assert_eq!(hlh2.bindings_at(pid, 1).count(), 2);
        assert_eq!(hlh2.bindings_at(pid, 4).count(), 1);
        assert_eq!(hlh2.bindings_at(pid, 2).count(), 0);
        // Every stored binding is the instance pair, in event order.
        for slice in hlh2.bindings_at(pid, 1) {
            assert_eq!(slice, &binding);
        }
        assert_eq!(entry.binding_ids_at_index(0).len(), 2);
        assert_eq!(hlh2.patterns_of_group(&group).len(), 1);
        assert!(hlh2.has_relation_between(label(0, 1), label(1, 1)));
        assert!(hlh2.has_relation_between(label(1, 1), label(0, 1)));
        assert!(!hlh2.has_relation_between(label(0, 1), label(0, 0)));
        assert_eq!(hlh2.participating_events(), vec![label(0, 1), label(1, 1)]);
        assert!(hlh2.footprint_bytes() > 0);
        assert!(!hlh2.is_empty());
        let _ = cfg;
    }

    #[test]
    fn hlhk_retain_candidates_compacts_table_and_pool() {
        // minDensity 1, minSeason 2 → a candidate needs support >= 2.
        let cfg = config(1, 2);
        let mut hlh2 = HlhK::new(2);
        let group_a = vec![label(0, 1), label(1, 1)];
        let group_b = vec![label(0, 1), label(1, 0)];
        let ga = hlh2.insert_group(group_a.clone(), vec![1, 2]);
        let gb = hlh2.insert_group(group_b.clone(), vec![3]);

        let strong =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Follows, false);
        let weak = TemporalPattern::pair([label(0, 1), label(1, 0)], RelationKind::Follows, false);
        let binding = [
            EventInstance::new(label(0, 1), Interval::new(1, 1)),
            EventInstance::new(label(1, 1), Interval::new(2, 2)),
        ];
        add(&mut hlh2, ga, &strong, 1, &binding);
        add(&mut hlh2, ga, &strong, 2, &binding);
        add(&mut hlh2, gb, &weak, 3, &binding);

        assert_eq!(hlh2.num_patterns(), 2);
        let footprint_before = hlh2.footprint_bytes();
        let removed = hlh2.retain_candidates(&cfg);
        assert_eq!(removed, 1);
        assert_eq!(hlh2.num_patterns(), 1);
        assert_eq!(hlh2.patterns()[0].pattern, strong);
        assert!(hlh2.patterns_of_group(&group_b).is_empty());
        assert_eq!(hlh2.patterns_of_group(&group_a).len(), 1);
        // group_b lost its last pattern: it is gone from the group table too,
        // so group counts and footprints only reflect live candidates.
        assert_eq!(hlh2.num_groups(), 1);
        assert!(hlh2.group(&group_b).is_none());
        assert!(hlh2.group(&group_a).is_some());
        assert!(hlh2.footprint_bytes() < footprint_before);
        // The pool was compacted alongside (2 surviving bindings × k = 2).
        assert_eq!(hlh2.pool.len(), 4);
        assert_eq!(hlh2.bindings_at(PatternId(0), 2).count(), 1);
        // Retaining again removes nothing.
        assert_eq!(hlh2.retain_candidates(&cfg), 0);
    }

    #[test]
    fn clear_empties_a_terminal_structure_for_reuse() {
        let mut combination = HlhK::new_terminal(2);
        let group = vec![label(0, 1), label(1, 1)];
        let follows =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Follows, false);
        let contains =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);
        let binding = [
            EventInstance::new(label(0, 1), Interval::new(1, 1)),
            EventInstance::new(label(1, 1), Interval::new(2, 2)),
        ];
        let gid = combination.insert_group(group.clone(), vec![1, 2]);
        add(&mut combination, gid, &follows, 1, &binding);
        add(&mut combination, gid, &contains, 2, &binding);
        add(&mut combination, gid, &follows, 2, &binding);
        assert!(combination.validate().is_ok());
        // A terminal structure keeps supports but no bindings.
        assert!(combination.pool.is_empty());
        let entries: Vec<(&TemporalPattern, &[GranulePos])> = combination
            .patterns()
            .iter()
            .map(|entry| (&entry.pattern, entry.support.as_slice()))
            .collect();
        assert_eq!(
            entries,
            vec![(&follows, &[1, 2][..]), (&contains, &[2][..])],
            "entries are kept in insertion order"
        );
        combination.clear();
        assert!(combination.is_empty());
        assert_eq!(combination.num_groups(), 0);
        assert!(combination.group(&group).is_none());
        assert_eq!(combination.footprint_bytes(), 0);
        // The emptied structure takes the next combination from scratch.
        let gid = combination.insert_group(group, vec![3]);
        assert_eq!(gid, GroupId(0));
        assert_eq!(
            add(&mut combination, gid, &follows, 3, &binding),
            PatternId(0)
        );
        assert_eq!(combination.patterns()[0].support, vec![3]);
        assert!(combination.validate().is_ok());
    }

    #[test]
    fn merge_shards_concatenates_disjoint_levels_in_shard_order() {
        let binding = |sym_a: u16, sym_b: u16| {
            [
                EventInstance::new(label(0, sym_a), Interval::new(1, 2)),
                EventInstance::new(label(1, sym_b), Interval::new(1, 1)),
            ]
        };
        let group_a = vec![label(0, 0), label(1, 0)];
        let group_b = vec![label(0, 1), label(1, 1)];
        let pattern_a =
            TemporalPattern::pair([label(0, 0), label(1, 0)], RelationKind::Follows, false);
        let pattern_b =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);

        let mut shard1 = HlhK::new(2);
        let g1 = shard1.insert_group(group_a.clone(), vec![1, 2]);
        add(&mut shard1, g1, &pattern_a, 1, &binding(0, 0));
        let mut shard2 = HlhK::new(2);
        let g2 = shard2.insert_group(group_b.clone(), vec![3]);
        add(&mut shard2, g2, &pattern_b, 3, &binding(1, 1));

        let merged = HlhK::merge_shards(2, vec![shard1, shard2]);
        assert_eq!(merged.num_groups(), 2);
        assert_eq!(merged.num_patterns(), 2);
        // Shard order is preserved in the pattern arena.
        assert_eq!(merged.patterns()[0].pattern, pattern_a);
        assert_eq!(merged.patterns()[1].pattern, pattern_b);
        // Group → pattern ids were remapped across the concatenation, and
        // binding ids still resolve into the concatenated pool.
        assert_eq!(merged.patterns_of_group(&group_b)[0].pattern, pattern_b);
        assert_eq!(merged.bindings_at(PatternId(1), 3).count(), 1);
        assert_eq!(
            merged.bindings_at(PatternId(1), 3).next().unwrap(),
            &binding(1, 1)
        );
        assert!(merged.has_relation_between(label(0, 1), label(1, 1)));

        // Merging empty shards yields an empty level.
        assert!(HlhK::merge_shards(2, vec![HlhK::new(2), HlhK::new(2)]).is_empty());
    }

    #[test]
    #[should_panic(expected = "group produced by two shards")]
    fn merge_shards_rejects_overlapping_shards() {
        let group = vec![label(0, 0), label(1, 0)];
        let mut shard1 = HlhK::new(2);
        shard1.insert_group(group.clone(), vec![1]);
        let mut shard2 = HlhK::new(2);
        shard2.insert_group(group, vec![1]);
        let _ = HlhK::merge_shards(2, vec![shard1, shard2]);
    }
}
