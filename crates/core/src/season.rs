//! Near support sets, seasons and the seasonality check
//! (Definitions 3.13–3.15).
//!
//! Given the support set of an event or pattern, the season-extraction
//! procedure is:
//!
//! 1. split the support set into *maximal near support sets* — maximal runs
//!    whose consecutive granules are at most `maxPeriod` apart
//!    (Definition 3.13);
//! 2. walk the near support sets left to right; granules closer than
//!    `distmin` to the end of the previously accepted season are dropped
//!    (this reproduces the paper's worked example where `H_9` is excluded
//!    from the second season of `M:1 ≽ N:1` because of `distmin = 4`);
//! 3. a trimmed near support set whose density reaches `minDensity` becomes a
//!    *season* (Definition 3.14);
//! 4. the pattern's seasonal-occurrence count `seasons(P)` is the longest
//!    chain of consecutive seasons whose pairwise distances lie inside
//!    `distInterval` (Definition 3.15).
//!
//! # Span-based representation
//!
//! Every season is a *contiguous* sub-range of the sorted support set: a near
//! support set is a maximal run, and the `distmin` trimming only ever drops a
//! prefix of it. One shared walker exploits that to run the whole procedure
//! allocation-free over index spans, computing the compliant-chain length
//! incrementally as seasons are accepted. The miner's hot path calls
//! the early-exit [`support_is_frequent`] (or the exact [`seasons_count`]) on
//! every candidate and materialises a [`Seasons`] — a concatenated granule
//! buffer plus one index span per season — only for the patterns that survive
//! `minSeason`.
//!
//! # Tail extension (streaming)
//!
//! The walker is a left-to-right online algorithm: its entire state is the
//! previously accepted season's end, the chain counters, and the still-open
//! tail run. [`SeasonTracker`] reifies exactly that state so an append-only
//! support set can *extend* its seasons instead of rebuilding them: pushing a
//! new tail granule is O(1), and only the seasons touching the tail window
//! can grow or split — everything already finalized (every span whose run was
//! closed by a `maxPeriod` gap) is immutable. The streaming miner keeps one
//! tracker per event and per candidate pattern; a
//! [`snapshot`](SeasonTracker::snapshot) of a tracker is byte-identical to
//! [`find_seasons`] over the full accumulated support, which is the invariant
//! the streaming/batch equivalence tests pin down. Because the whole walker
//! state is those few plain fields, a tracker is also trivially durable: the
//! [`snapshot`](crate::snapshot) persistence subsystem serializes it verbatim
//! and restores it bit-for-bit, and [`SeasonTracker::rebuild`] doubles as the
//! exactness fallback when a restore changes the resolved seasonality
//! thresholds.

use crate::config::ResolvedConfig;
use stpm_timeseries::GranulePos;

/// The seasons of an event or pattern, together with the derived
/// seasonal-occurrence count.
///
/// Seasons are stored span-based: one flat buffer holds the granules of every
/// season back to back, and each season is an index range into it. Accessors
/// hand out `&[GranulePos]` slices; nothing is re-allocated per call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Seasons {
    /// The granules of every season, concatenated in chronological order.
    granules: Vec<GranulePos>,
    /// Half-open index ranges into `granules`, one per season.
    spans: Vec<(u32, u32)>,
    chain_len: u64,
}

impl Seasons {
    /// Number of seasons.
    #[must_use]
    pub fn num_seasons(&self) -> usize {
        self.spans.len()
    }

    /// The granules of season `idx` (seasons are in chronological order).
    ///
    /// # Panics
    /// Panics when `idx >= num_seasons()`.
    #[must_use]
    pub fn season(&self, idx: usize) -> &[GranulePos] {
        let (start, end) = self.spans[idx];
        &self.granules[start as usize..end as usize]
    }

    /// The seasons, in chronological order, as granule slices.
    pub fn seasons(&self) -> impl ExactSizeIterator<Item = &[GranulePos]> + '_ {
        self.spans
            .iter()
            .map(|&(start, end)| &self.granules[start as usize..end as usize])
    }

    /// The first season, if any.
    #[must_use]
    pub fn first_season(&self) -> Option<&[GranulePos]> {
        self.spans.first().map(|_| self.season(0))
    }

    /// The last season, if any.
    #[must_use]
    pub fn last_season(&self) -> Option<&[GranulePos]> {
        (!self.spans.is_empty()).then(|| self.season(self.spans.len() - 1))
    }

    /// `seasons(P)`: the longest chain of consecutive seasons whose pairwise
    /// distances fall inside `distInterval`.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.chain_len
    }

    /// Whether the pattern is frequent for the given `minSeason` threshold.
    #[must_use]
    pub fn is_frequent(&self, min_season: u64) -> bool {
        self.chain_len >= min_season
    }

    /// Density (granule count) of every season, allocation-free.
    pub fn densities(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.spans
            .iter()
            .map(|&(start, end)| u64::from(end - start))
    }

    /// Distances between consecutive seasons (Definition 3.14's `dist`):
    /// `next_start - prev_end` over chronologically ordered seasons. The
    /// extraction walks the sorted support set left to right, so a later
    /// season always starts after the previous one ends; the checked
    /// subtraction makes that invariant explicit instead of silently
    /// absorbing a violation the way `abs_diff` would.
    ///
    /// # Panics
    /// Panics when two consecutive seasons are not chronologically ordered —
    /// season extraction only ever produces ordered, disjoint seasons, so a
    /// violation is a construction bug, not data to tolerate.
    pub fn distances(&self) -> impl Iterator<Item = u64> + '_ {
        self.spans.windows(2).map(|w| {
            let prev_end = self.granules[w[0].1 as usize - 1];
            let next_start = self.granules[w[1].0 as usize];
            next_start
                .checked_sub(prev_end)
                .expect("seasons are chronologically ordered and disjoint")
        })
    }
}

/// Exclusive end of the maximal dense run of `support` beginning at
/// `start`: the first `j > start` with `j == support.len()` or a gap
/// `support[j] - support[j-1]` above `max_period`. Requires
/// `start < support.len()`; on a strictly increasing `support` the wrapping
/// subtraction is an ordinary one.
// lint: hot-path
#[inline]
fn run_end(support: &[GranulePos], start: usize, max_period: u64) -> usize {
    let mut j = start + 1;
    while j < support.len() && support[j].wrapping_sub(support[j - 1]) <= max_period {
        j += 1;
    }
    j
}

/// Walks the trimmed, dense-enough seasons of `support` as half-open index
/// spans, reporting each through `on_season(start, end)` and returning the
/// longest compliant chain length — the single allocation-free core behind
/// [`find_seasons`], [`seasons_count`] and [`support_is_frequent`].
///
/// When `early_exit_at` is set, the walk stops as soon as the chain reaches
/// that length (the returned value is then a lower bound, sufficient for the
/// `>= minSeason` comparison of the frequency check).
// lint: hot-path
fn walk_season_spans<F: FnMut(usize, usize)>(
    support: &[GranulePos],
    config: &ResolvedConfig,
    early_exit_at: Option<u64>,
    mut on_season: F,
) -> u64 {
    let mut best = 0u64;
    let mut current = 0u64;
    // End granule of the previously *accepted* season (trimming and chain
    // distances are both measured against it).
    let mut prev_end: Option<GranulePos> = None;
    let mut i = 0usize;
    while i < support.len() {
        if early_exit_at.is_some_and(|target| best >= target) {
            return best;
        }
        // Maximal near support set: the run [i, j).
        let j = run_end(support, i, config.max_period);
        // distmin trimming: drop leading granules closer than distmin to the
        // end of the previously accepted season.
        let mut s = i;
        if let Some(prev) = prev_end {
            while s < j && support[s].saturating_sub(prev) < config.dist_min {
                s += 1;
            }
        }
        if (j - s) as u64 >= config.min_density {
            current = match prev_end {
                Some(prev) => {
                    let dist = support[s] - prev;
                    if dist >= config.dist_min && dist <= config.dist_max {
                        current + 1
                    } else {
                        1
                    }
                }
                None => 1,
            };
            best = best.max(current);
            prev_end = Some(support[j - 1]);
            on_season(s, j);
        }
        i = j;
    }
    best
}

/// The still-open tail run of a [`SeasonTracker`]: the maximal near support
/// set the most recent granules belong to. It cannot be finalized until a
/// `maxPeriod` gap closes it (or a snapshot treats the stream end as one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingRun {
    /// Index (into the tracked support set) of the first granule kept after
    /// the `distmin` trimming — `None` while every granule of the run so far
    /// has been trimmed away.
    pub(crate) kept_from: Option<u32>,
    /// The granule at `kept_from` (the would-be season start).
    pub(crate) first_kept: GranulePos,
    /// The last granule of the run so far.
    pub(crate) last: GranulePos,
}

/// Incremental season-extraction state over an *append-only* support set —
/// the `walk_season_spans` walker with its loop state made persistent.
///
/// Push every support granule (with its index) in order; at any point the
/// tracker can answer the frequency check in O(1) and materialise the exact
/// [`Seasons`] of the accumulated support without re-walking it. Accepted
/// seasons are stored as index spans into the caller's support vector, so the
/// tracker never copies granules.
///
/// The tracker's transitions are pinned against the batch walker by property
/// tests: for every prefix of every support set,
/// `snapshot(support) == find_seasons(support)`.
///
/// The fields are crate-visible so the [`snapshot`](crate::snapshot)
/// persistence subsystem can serialize a tracker's loop state verbatim and
/// reconstruct it bit-for-bit on restore.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeasonTracker {
    /// Accepted seasons as half-open index spans into the tracked support.
    pub(crate) spans: Vec<(u32, u32)>,
    /// Longest compliant chain over the accepted seasons.
    pub(crate) best: u64,
    /// Chain length ending at the most recently accepted season.
    pub(crate) current: u64,
    /// End granule of the most recently accepted season.
    pub(crate) prev_end: Option<GranulePos>,
    /// The still-open tail run.
    pub(crate) pending: Option<PendingRun>,
}

impl SeasonTracker {
    /// Replays a full support set through a fresh tracker — used when the
    /// resolved seasonality thresholds change (fractional thresholds crossing
    /// a granule-count boundary invalidate the incremental state).
    #[must_use]
    pub fn rebuild(support: &[GranulePos], config: &ResolvedConfig) -> Self {
        let mut tracker = Self::default();
        for (idx, &granule) in support.iter().enumerate() {
            tracker.push(idx, granule, config);
        }
        tracker
    }

    /// Whether `granule` survives the `distmin` trimming against the end of
    /// the previously accepted season.
    // lint: hot-path
    fn keeps(&self, granule: GranulePos, config: &ResolvedConfig) -> bool {
        self.prev_end
            .is_none_or(|prev| granule.saturating_sub(prev) >= config.dist_min)
    }

    /// Closes a run whose last granule is `support[end_idx - 1]`, accepting
    /// it as a season when its trimmed length reaches `minDensity` — the body
    /// of the batch walker's per-run step.
    fn finalize(&mut self, run: PendingRun, end_idx: u32, config: &ResolvedConfig) {
        let Some(kept_from) = run.kept_from else {
            return;
        };
        if u64::from(end_idx - kept_from) < config.min_density {
            return;
        }
        self.current = match self.prev_end {
            Some(prev) => {
                let dist = run.first_kept - prev;
                if dist >= config.dist_min && dist <= config.dist_max {
                    self.current + 1
                } else {
                    1
                }
            }
            None => 1,
        };
        self.best = self.best.max(self.current);
        self.prev_end = Some(run.last);
        self.spans.push((kept_from, end_idx));
    }

    /// Appends the support granule at index `idx` to the tracked set.
    /// Granules must arrive in strictly increasing order, with `idx` equal to
    /// the number of granules pushed so far.
    ///
    /// # Panics
    /// Panics when the support set outgrows `u32` indices.
    // lint: hot-path
    pub fn push(&mut self, idx: usize, granule: GranulePos, config: &ResolvedConfig) {
        let idx = u32::try_from(idx).expect("support length fits u32");
        let extends = self.pending.as_ref().is_some_and(|run| {
            debug_assert!(run.last < granule, "support granules must ascend");
            granule - run.last <= config.max_period
        });
        if extends {
            // The extend path never changes prev_end, so the trimming
            // decision can be made before the mutable borrow.
            let keep = self.keeps(granule, config);
            let run = self.pending.as_mut().expect("extends implies pending");
            run.last = granule;
            if run.kept_from.is_none() && keep {
                run.kept_from = Some(idx);
                run.first_kept = granule;
            }
        } else {
            if let Some(run) = self.pending.take() {
                self.finalize(run, idx, config);
            }
            // Trimming is checked after finalize: accepting the closed run
            // may have moved prev_end.
            let keep = self.keeps(granule, config);
            self.pending = Some(PendingRun {
                kept_from: keep.then_some(idx),
                first_kept: granule,
                last: granule,
            });
        }
    }

    /// The span and would-be chain length of the pending tail run if the
    /// stream ended now, or `None` when the tail is not (yet) a season.
    // lint: hot-path
    fn pending_span(&self, len: u32, config: &ResolvedConfig) -> Option<((u32, u32), u64)> {
        let run = self.pending.as_ref()?;
        let kept_from = run.kept_from?;
        if u64::from(len - kept_from) < config.min_density {
            return None;
        }
        let chain = match self.prev_end {
            Some(prev) => {
                let dist = run.first_kept - prev;
                if dist >= config.dist_min && dist <= config.dist_max {
                    self.current + 1
                } else {
                    1
                }
            }
            None => 1,
        };
        Some(((kept_from, len), chain))
    }

    /// `seasons(P)` of the accumulated support — the exact value
    /// [`seasons_count`] would return, in O(1).
    #[must_use]
    // lint: hot-path
    pub fn count(&self, support_len: usize, config: &ResolvedConfig) -> u64 {
        let len = u32::try_from(support_len).expect("support length fits u32");
        match self.pending_span(len, config) {
            Some((_, chain)) => self.best.max(chain),
            None => self.best,
        }
    }

    /// Whether the accumulated support passes the `minSeason` frequency
    /// check — the O(1) equivalent of [`support_is_frequent`].
    #[must_use]
    // lint: hot-path
    pub fn is_frequent(&self, support_len: usize, config: &ResolvedConfig) -> bool {
        self.count(support_len, config) >= config.min_season
    }

    /// Materialises the exact [`Seasons`] of the accumulated support.
    /// `support` must be the granules pushed so far, in push order.
    #[must_use]
    pub fn snapshot(&self, support: &[GranulePos], config: &ResolvedConfig) -> Seasons {
        let len = u32::try_from(support.len()).expect("support length fits u32");
        let pending = self.pending_span(len, config);
        let chain_len = match pending {
            Some((_, chain)) => self.best.max(chain),
            None => self.best,
        };
        let span_count = self.spans.len() + usize::from(pending.is_some());
        let mut granules = Vec::new();
        let mut spans = Vec::with_capacity(span_count);
        for &(s, e) in self
            .spans
            .iter()
            .chain(pending.iter().map(|(span, _)| span))
        {
            let start = u32::try_from(granules.len()).expect("season granules fit u32");
            granules.extend_from_slice(&support[s as usize..e as usize]);
            let end = u32::try_from(granules.len()).expect("season granules fit u32");
            spans.push((start, end));
        }
        Seasons {
            granules,
            spans,
            chain_len,
        }
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<(u32, u32)>()
    }
}

/// Extracts the seasons of a support set (described in the module docs),
/// materialising the span-based [`Seasons`]. The hot path should gate on
/// [`support_is_frequent`] first and only materialise survivors.
#[must_use]
pub fn find_seasons(support: &[GranulePos], config: &ResolvedConfig) -> Seasons {
    let mut granules: Vec<GranulePos> = Vec::new();
    let mut spans: Vec<(u32, u32)> = Vec::new();
    let chain_len = walk_season_spans(support, config, None, |s, e| {
        let start = u32::try_from(granules.len()).expect("season granules fit u32");
        granules.extend_from_slice(&support[s..e]);
        let end = u32::try_from(granules.len()).expect("season granules fit u32");
        spans.push((start, end));
    });
    let seasons = Seasons {
        granules,
        spans,
        chain_len,
    };
    crate::invariants::debug_validate!(seasons.validate());
    seasons
}

/// `seasons(P)` of a support set without materialising any season: the same
/// walk as [`find_seasons`], granule comparisons and an O(1) chain state
/// only.
#[must_use]
// lint: hot-path
pub fn seasons_count(support: &[GranulePos], config: &ResolvedConfig) -> u64 {
    walk_season_spans(support, config, None, |_, _| {})
}

/// Whether a support set passes the `minSeason` frequency check, with an
/// early exit as soon as the compliant chain reaches `minSeason` — the
/// allocation-free fast path the miner runs on every candidate.
#[must_use]
// lint: hot-path
pub fn support_is_frequent(support: &[GranulePos], config: &ResolvedConfig) -> bool {
    walk_season_spans(support, config, Some(config.min_season), |_, _| {}) >= config.min_season
}

/// Splits a sorted support set into its maximal near support sets: maximal
/// runs whose consecutive granules are at most `max_period` apart
/// (Definition 3.13).
#[must_use]
pub fn near_support_sets(support: &[GranulePos], max_period: u64) -> Vec<Vec<GranulePos>> {
    let mut sets = Vec::new();
    let mut current: Vec<GranulePos> = Vec::new();
    for &granule in support {
        match current.last() {
            Some(&last) if granule - last > max_period => {
                sets.push(std::mem::take(&mut current));
                current.push(granule);
            }
            _ => current.push(granule),
        }
    }
    if !current.is_empty() {
        sets.push(current);
    }
    sets
}

/// Seasonality summary of a support set: season count plus the seasons
/// themselves, kept as a named pair for report ergonomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeasonSet {
    /// The support set the seasons were derived from.
    pub support: Vec<GranulePos>,
    /// The derived seasons.
    pub seasons: Seasons,
}

impl SeasonSet {
    /// Derives the seasons of `support` under `config`.
    #[must_use]
    pub fn derive(support: Vec<GranulePos>, config: &ResolvedConfig) -> Self {
        let seasons = find_seasons(&support, config);
        Self { support, seasons }
    }
}

// ---------------------------------------------------------------------------
// Structural validation (see the `invariants` module).
// ---------------------------------------------------------------------------

use crate::invariants::{invariant, InvariantViolation};

impl Seasons {
    /// Validates the span layout: spans tile the granule buffer contiguously
    /// from 0, every season is non-empty, granules ascend strictly across
    /// the whole buffer (seasons are chronological and disjoint), and the
    /// compliant chain cannot exceed the season count.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found, if any.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        const S: &str = "Seasons";
        let mut expected_start = 0u32;
        for (idx, &(start, end)) in self.spans.iter().enumerate() {
            invariant!(
                S,
                start == expected_start,
                "season {idx} starts at {start}, expected {expected_start} (spans must tile the buffer)"
            );
            invariant!(S, start < end, "season {idx} is empty");
            expected_start = end;
        }
        invariant!(
            S,
            expected_start as usize == self.granules.len(),
            "spans cover {expected_start} granules, buffer holds {}",
            self.granules.len()
        );
        invariant!(
            S,
            self.granules.windows(2).all(|w| w[0] < w[1]),
            "season granules are not strictly ascending"
        );
        invariant!(
            S,
            self.chain_len <= self.spans.len() as u64,
            "compliant chain {} longer than the {} seasons",
            self.chain_len,
            self.spans.len()
        );
        Ok(())
    }
}

impl SeasonTracker {
    /// Cross-checks the incremental state against a fresh replay of
    /// `support` (the granules pushed so far, in push order): the tracker's
    /// loop state must be bit-identical to what [`SeasonTracker::rebuild`]
    /// derives, and its accepted spans must be monotone and in bounds.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found, if any.
    pub fn validate(
        &self,
        support: &[GranulePos],
        config: &ResolvedConfig,
    ) -> Result<(), InvariantViolation> {
        const S: &str = "SeasonTracker";
        let len = support.len();
        let mut prev_end = 0u32;
        for (idx, &(start, end)) in self.spans.iter().enumerate() {
            invariant!(
                S,
                start >= prev_end,
                "accepted span {idx} overlaps its predecessor"
            );
            invariant!(S, start < end, "accepted span {idx} is empty");
            invariant!(
                S,
                end as usize <= len,
                "accepted span {idx} ends past the {len}-granule support"
            );
            prev_end = end;
        }
        let replayed = Self::rebuild(support, config);
        invariant!(
            S,
            *self == replayed,
            "incremental state diverges from a fresh replay of the {len}-granule support"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StpmConfig, Threshold};

    fn config(
        max_period: u64,
        min_density: u64,
        dist: (u64, u64),
        min_season: u64,
    ) -> ResolvedConfig {
        StpmConfig {
            max_period: Threshold::Absolute(max_period),
            min_density: Threshold::Absolute(min_density),
            dist_interval: dist,
            min_season,
            ..StpmConfig::default()
        }
        .resolve(100)
        .unwrap()
    }

    /// Collects the seasons into owned vectors for structural assertions.
    fn season_vecs(seasons: &Seasons) -> Vec<Vec<GranulePos>> {
        seasons.seasons().map(<[GranulePos]>::to_vec).collect()
    }

    /// Asserts that the allocation-free fast paths agree with the
    /// materialising extraction on `support`.
    fn assert_fast_paths_agree(support: &[GranulePos], cfg: &ResolvedConfig) {
        let seasons = find_seasons(support, cfg);
        assert_eq!(seasons_count(support, cfg), seasons.count());
        assert_eq!(
            support_is_frequent(support, cfg),
            seasons.is_frequent(cfg.min_season)
        );
    }

    #[test]
    fn near_support_sets_split_on_large_gaps() {
        // The paper's C:1 ≽ D:1 example: SUP = {1,2,3,7,8,11,12,14}, maxPeriod 2
        // yields {1,2,3}, {7,8}, {11,12,14}.
        let sets = near_support_sets(&[1, 2, 3, 7, 8, 11, 12, 14], 2);
        assert_eq!(sets, vec![vec![1, 2, 3], vec![7, 8], vec![11, 12, 14]]);
    }

    #[test]
    fn near_support_sets_edge_cases() {
        assert!(near_support_sets(&[], 2).is_empty());
        assert_eq!(near_support_sets(&[5], 2), vec![vec![5]]);
        assert_eq!(near_support_sets(&[1, 2, 3], 10), vec![vec![1, 2, 3]]);
        assert_eq!(
            near_support_sets(&[1, 5, 9], 2),
            vec![vec![1], vec![5], vec![9]]
        );
    }

    #[test]
    fn paper_example_c1_contains_d1() {
        // maxPeriod = 2, minDensity = 3: two of the three near support sets
        // are dense enough.
        let cfg = config(2, 3, (1, 20), 2);
        let support = [1, 2, 3, 7, 8, 11, 12, 14];
        let seasons = find_seasons(&support, &cfg);
        assert_eq!(seasons.num_seasons(), 2);
        assert_eq!(seasons.season(0), &[1, 2, 3]);
        assert_eq!(seasons.season(1), &[11, 12, 14]);
        assert_eq!(seasons.densities().collect::<Vec<_>>(), vec![3, 3]);
        // Distance between season 1 (ends at 3) and season 2 (starts at 11).
        assert_eq!(seasons.distances().collect::<Vec<_>>(), vec![8]);
        assert_eq!(seasons.count(), 2);
        assert!(seasons.is_frequent(2));
        assert!(!seasons.is_frequent(3));
        assert_fast_paths_agree(&support, &cfg);
    }

    #[test]
    fn paper_example_m1_contains_n1_with_distmin_trimming() {
        // Section IV-B worked example: SUP(M:1 ≽ N:1) = {1,3,4,5,6,9,10,11,13},
        // maxPeriod = 2, minDensity = 3, distInterval = [4, 10].
        // H9 must be trimmed from the second season because it is only 3
        // granules after the end of the first season.
        let cfg = config(2, 3, (4, 10), 2);
        let support = [1, 3, 4, 5, 6, 9, 10, 11, 13];
        let seasons = find_seasons(&support, &cfg);
        assert_eq!(seasons.num_seasons(), 2);
        assert_eq!(seasons.season(0), &[1, 3, 4, 5, 6]);
        assert_eq!(seasons.season(1), &[10, 11, 13]);
        assert_eq!(seasons.count(), 2);
        assert!(seasons.is_frequent(2));
        assert_fast_paths_agree(&support, &cfg);
    }

    #[test]
    fn paper_example_single_event_m1_is_not_frequent() {
        // SUP(M:1) = {1,2,3,4,5,6,8,9,10,11,13} forms a single season, so the
        // event is not frequent for minSeason = 2 — the anti-monotonicity
        // counter-example of Section IV-B.
        let cfg = config(2, 3, (4, 10), 2);
        let support = [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13];
        let seasons = find_seasons(&support, &cfg);
        assert_eq!(seasons.num_seasons(), 1);
        assert_eq!(seasons.count(), 1);
        assert!(!seasons.is_frequent(2));
        assert_fast_paths_agree(&support, &cfg);
    }

    #[test]
    fn sparse_near_sets_are_not_seasons() {
        let cfg = config(2, 3, (1, 20), 2);
        let seasons = find_seasons(&[1, 2, 10, 11], &cfg);
        assert_eq!(seasons.num_seasons(), 0);
        assert_eq!(seasons.count(), 0);
        assert!(!seasons.is_frequent(1));
        assert!(seasons.first_season().is_none());
        assert!(seasons.last_season().is_none());
        assert_fast_paths_agree(&[1, 2, 10, 11], &cfg);
    }

    #[test]
    fn chain_breaks_when_distance_exceeds_distmax() {
        // Three seasons at distances 5 and 50; with distmax = 10 only a chain
        // of two is compliant.
        let cfg = config(1, 2, (2, 10), 2);
        let support = vec![1, 2, 8, 9, 60, 61];
        let seasons = find_seasons(&support, &cfg);
        assert_eq!(seasons.num_seasons(), 3);
        assert_eq!(seasons.count(), 2);
        assert_fast_paths_agree(&support, &cfg);
    }

    #[test]
    fn chain_restarts_after_violation() {
        // Distances: 50 (violation), then 5, 5 (compliant) → chain of 3.
        let cfg = config(1, 2, (2, 10), 2);
        let support = vec![1, 2, 60, 61, 70, 71, 80, 81];
        let seasons = find_seasons(&support, &cfg);
        assert_eq!(seasons.num_seasons(), 4);
        assert_eq!(seasons.count(), 3);
        assert_fast_paths_agree(&support, &cfg);
    }

    #[test]
    fn trimming_can_reject_a_whole_near_set() {
        // The second near set lies entirely within distmin of the first
        // season's end, so it disappears.
        let cfg = config(1, 2, (10, 100), 1);
        let support = vec![1, 2, 5, 6];
        let seasons = find_seasons(&support, &cfg);
        assert_eq!(seasons.num_seasons(), 1);
        assert_eq!(seasons.season(0), &[1, 2]);
        assert_fast_paths_agree(&support, &cfg);
    }

    #[test]
    fn empty_support_yields_no_seasons() {
        let cfg = config(2, 2, (1, 10), 1);
        let seasons = find_seasons(&[], &cfg);
        assert_eq!(seasons.count(), 0);
        assert_eq!(seasons.num_seasons(), 0);
        assert_eq!(seasons.seasons().len(), 0);
        assert_eq!(seasons.distances().count(), 0);
        assert_eq!(seasons.densities().len(), 0);
        assert!(!seasons.is_frequent(1));
        assert_fast_paths_agree(&[], &cfg);
    }

    #[test]
    fn single_granule_support_forms_at_most_one_season() {
        // One granule: a season iff minDensity allows it; no distances either
        // way.
        let cfg = config(2, 1, (1, 10), 1);
        let seasons = find_seasons(&[7], &cfg);
        assert_eq!(season_vecs(&seasons), vec![vec![7]]);
        assert_eq!(seasons.count(), 1);
        assert_eq!(seasons.distances().count(), 0);
        assert_eq!(seasons.first_season(), Some(&[7u64][..]));
        assert_eq!(seasons.last_season(), Some(&[7u64][..]));
        assert_fast_paths_agree(&[7], &cfg);

        let dense = config(2, 2, (1, 10), 1);
        let seasons = find_seasons(&[7], &dense);
        assert_eq!(seasons.num_seasons(), 0);
        assert_eq!(seasons.count(), 0);
        assert_fast_paths_agree(&[7], &dense);
    }

    #[test]
    fn distances_are_chronological_gaps_not_absolute_differences() {
        // Seasons {1,2,3} and {11,12,14}: dist = 11 - 3 = 8, measured from
        // the end of the earlier season to the start of the later one.
        let cfg = config(2, 3, (1, 20), 2);
        let seasons = find_seasons(&[1, 2, 3, 7, 8, 11, 12, 14], &cfg);
        assert_eq!(seasons.distances().collect::<Vec<_>>(), vec![8]);
        // Three seasons → two gaps, each a forward (non-negative) distance.
        let cfg = config(1, 2, (2, 100), 2);
        let seasons = find_seasons(&[1, 2, 8, 9, 60, 61], &cfg);
        assert_eq!(seasons.distances().collect::<Vec<_>>(), vec![6, 51]);
    }

    #[test]
    fn distmin_trimming_that_empties_a_near_set_skips_its_distance() {
        // Near sets {1,2}, {5,6}, {20,21} with distmin = 10: every granule of
        // {5,6} is closer than distmin to the end of season {1,2}, so the
        // trim consumes the whole near set and the next distance is measured
        // from {1,2} to {20,21}.
        let cfg = config(1, 2, (10, 100), 1);
        let support = vec![1, 2, 5, 6, 20, 21];
        let seasons = find_seasons(&support, &cfg);
        assert_eq!(season_vecs(&seasons), vec![vec![1, 2], vec![20, 21]]);
        assert_eq!(seasons.distances().collect::<Vec<_>>(), vec![18]);
        assert_eq!(seasons.count(), 2);
        assert_fast_paths_agree(&support, &cfg);
    }

    #[test]
    fn early_exit_fast_path_agrees_on_long_compliant_chains() {
        // Ten compliant seasons; support_is_frequent may stop after two but
        // must agree with the exact check for every minSeason.
        let mut support = Vec::new();
        for s in 0..10u64 {
            let base = 1 + s * 10;
            support.extend([base, base + 1, base + 2]);
        }
        for min_season in 1..12u64 {
            let cfg = config(2, 3, (3, 20), min_season);
            let seasons = find_seasons(&support, &cfg);
            assert_eq!(seasons.count(), 10);
            assert_eq!(
                support_is_frequent(&support, &cfg),
                seasons.is_frequent(min_season),
                "minSeason {min_season}"
            );
        }
    }

    /// Asserts that a tracker fed `support` granule by granule agrees with
    /// the batch extraction at *every prefix*.
    fn assert_tracker_matches_batch(support: &[GranulePos], cfg: &ResolvedConfig) {
        let mut tracker = SeasonTracker::default();
        for (idx, &granule) in support.iter().enumerate() {
            tracker.push(idx, granule, cfg);
            let prefix = &support[..=idx];
            let batch = find_seasons(prefix, cfg);
            assert_eq!(
                tracker.snapshot(prefix, cfg),
                batch,
                "prefix {prefix:?} diverged"
            );
            assert_eq!(tracker.count(prefix.len(), cfg), batch.count());
            assert_eq!(
                tracker.is_frequent(prefix.len(), cfg),
                batch.is_frequent(cfg.min_season)
            );
        }
        assert_eq!(SeasonTracker::rebuild(support, cfg), tracker);
    }

    #[test]
    fn tracker_matches_batch_on_the_paper_examples() {
        assert_tracker_matches_batch(&[1, 2, 3, 7, 8, 11, 12, 14], &config(2, 3, (1, 20), 2));
        // distmin trimming (H9 dropped from the second season).
        assert_tracker_matches_batch(&[1, 3, 4, 5, 6, 9, 10, 11, 13], &config(2, 3, (4, 10), 2));
        // A whole near set consumed by trimming.
        assert_tracker_matches_batch(&[1, 2, 5, 6, 20, 21], &config(1, 2, (10, 100), 1));
        // Chain break and restart.
        assert_tracker_matches_batch(&[1, 2, 60, 61, 70, 71, 80, 81], &config(1, 2, (2, 10), 2));
        // Empty and single-granule supports.
        assert_tracker_matches_batch(&[], &config(2, 2, (1, 10), 1));
        assert_tracker_matches_batch(&[7], &config(2, 1, (1, 10), 1));
    }

    #[test]
    fn tracker_extends_a_tail_season_across_pushes() {
        // The tail run grows from "not yet a season" to a season to a longer
        // season as granules arrive — no rebuild, every snapshot exact.
        let cfg = config(2, 3, (1, 20), 2);
        let support = [1, 2, 3, 10, 11, 12, 13];
        let mut tracker = SeasonTracker::default();
        for (idx, &g) in support.iter().enumerate() {
            tracker.push(idx, g, &cfg);
        }
        let seasons = tracker.snapshot(&support, &cfg);
        assert_eq!(seasons.num_seasons(), 2);
        assert_eq!(seasons.season(1), &[10, 11, 12, 13]);
        assert_eq!(seasons.count(), 2);
        // A far-away granule closes the tail season and opens a new run.
        let support = [1, 2, 3, 10, 11, 12, 13, 40];
        tracker.push(7, 40, &cfg);
        let seasons = tracker.snapshot(&support, &cfg);
        assert_eq!(seasons.num_seasons(), 2, "the lone tail granule is sparse");
        assert_eq!(tracker.count(support.len(), &cfg), 2);
    }

    #[test]
    fn season_set_derive_keeps_support() {
        let cfg = config(2, 2, (1, 10), 1);
        let set = SeasonSet::derive(vec![1, 2, 3, 8, 9], &cfg);
        assert_eq!(set.support, vec![1, 2, 3, 8, 9]);
        assert_eq!(set.seasons.num_seasons(), 2);
    }
}
