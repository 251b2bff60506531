//! Mining results: frequent seasonal events and patterns plus run statistics.

use crate::pattern::TemporalPattern;
use crate::season::Seasons;
use crate::support::SupportSet;
use std::collections::BTreeSet;
use std::time::Duration;
use stpm_timeseries::{EventLabel, EventRegistry};

/// A frequent seasonal single event (output of STPM step 2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct MinedEvent {
    /// The event.
    pub label: EventLabel,
    /// Its support set.
    pub support: SupportSet,
    /// Its seasons.
    pub seasons: Seasons,
}

/// A frequent seasonal temporal pattern (output of STPM step 2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct MinedPattern {
    pattern: TemporalPattern,
    support: SupportSet,
    seasons: Seasons,
}

impl MinedPattern {
    /// Creates a mined-pattern record.
    #[must_use]
    pub fn new(pattern: TemporalPattern, support: SupportSet, seasons: Seasons) -> Self {
        Self {
            pattern,
            support,
            seasons,
        }
    }

    /// The pattern.
    #[must_use]
    pub fn pattern(&self) -> &TemporalPattern {
        &self.pattern
    }

    /// The pattern's support set.
    #[must_use]
    pub fn support(&self) -> &[u64] {
        &self.support
    }

    /// The pattern's seasons.
    #[must_use]
    pub fn seasons(&self) -> &Seasons {
        &self.seasons
    }

    /// Human-readable rendering with season annotations.
    #[must_use]
    pub fn display(&self, registry: &EventRegistry) -> String {
        format!(
            "{} [seasons: {}, support: {}]",
            self.pattern.display(registry),
            self.seasons.count(),
            self.support.len()
        )
    }
}

/// Canonical, order-insensitive rendering of a mined result set: one string
/// per event and per pattern, each carrying the pattern, its full support
/// set and its seasons. Two mining runs are *identical* — the streaming
/// engine's exactness contract — iff their canonical sets are equal; the
/// streaming/batch equivalence tests and the streaming benchmark all compare
/// through this one helper so the identity check cannot drift between them.
#[must_use]
pub fn canonical_result_set(events: &[MinedEvent], patterns: &[MinedPattern]) -> BTreeSet<String> {
    events
        .iter()
        .map(|e| format!("{:?} {:?} {:?}", e.label, e.support, e.seasons))
        .chain(
            patterns
                .iter()
                .map(|p| format!("{:?} {:?} {:?}", p.pattern(), p.support(), p.seasons())),
        )
        .collect()
}

/// Per-level counters collected while mining (used to report the search-space
/// reduction of the pruning techniques and the level-2 reuse of the k ≥ 3
/// loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// Pattern length `k` of the level.
    pub k: usize,
    /// Number of candidate k-event groups examined.
    pub candidate_groups: usize,
    /// Number of candidate k-event patterns kept in `HLH_k` (for the
    /// streamed last level: that passed the `maxSeason` gate).
    pub candidate_patterns: usize,
    /// Number of frequent seasonal k-event patterns found.
    pub frequent_patterns: usize,
    /// Approximate bytes held by `HLH_k` at the end of the level. The last
    /// level of a run is streamed one (k−1)-group × `E_k` combination at a
    /// time (one level-2 pair at k = 2) and never held whole; its
    /// footprint is the peak of its per-combination structure, the largest
    /// any single combination reached.
    pub footprint_bytes: usize,
    /// `classify_relation` calls this level avoided by looking the verdict
    /// up in the level-2 verdict table instead (always 0 at k = 2, where the
    /// verdicts are produced).
    pub classifier_calls_saved: usize,
    /// (group, extension-event) combinations the level-2 adjacency matrix
    /// pruned *before* any support intersection ran — work the naive
    /// `FilteredF_1` scan would have started and then discarded (always 0 at
    /// k = 2 and when transitivity pruning is off).
    pub adjacency_pruned_candidates: usize,
}

/// Statistics of a mining run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MiningStats {
    /// Number of granules of the mined database.
    pub num_granules: u64,
    /// Number of distinct events in the database.
    pub num_events: usize,
    /// Number of candidate single events retained in `HLH_1`.
    pub candidate_events: usize,
    /// Number of frequent seasonal single events.
    pub frequent_events: usize,
    /// Per-level statistics for k ≥ 2.
    pub levels: Vec<LevelStats>,
    /// Wall-clock time of the whole mining run.
    pub total_time: Duration,
    /// Wall-clock time spent mining single events.
    pub single_event_time: Duration,
    /// Wall-clock time spent mining k ≥ 2 patterns.
    pub pattern_time: Duration,
    /// Approximate peak heap footprint of all HLH structures, in bytes.
    pub peak_footprint_bytes: usize,
}

impl MiningStats {
    /// Total number of frequent seasonal patterns across every level
    /// (excluding single events).
    #[must_use]
    pub fn total_frequent_patterns(&self) -> usize {
        self.levels.iter().map(|l| l.frequent_patterns).sum()
    }

    /// Total number of candidate patterns held across every level.
    #[must_use]
    pub fn total_candidate_patterns(&self) -> usize {
        self.levels.iter().map(|l| l.candidate_patterns).sum()
    }

    /// Total `classify_relation` calls avoided through the level-2 verdict
    /// table, across every k ≥ 3 level.
    #[must_use]
    pub fn total_classifier_calls_saved(&self) -> usize {
        self.levels.iter().map(|l| l.classifier_calls_saved).sum()
    }

    /// Total (group, extension-event) combinations pruned by the adjacency
    /// matrix before any support work, across every k ≥ 3 level.
    #[must_use]
    pub fn total_adjacency_pruned_candidates(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.adjacency_pruned_candidates)
            .sum()
    }
}

/// The complete output of a mining run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MiningReport {
    events: Vec<MinedEvent>,
    patterns: Vec<MinedPattern>,
    stats: MiningStats,
}

impl MiningReport {
    /// Assembles a report.
    #[must_use]
    pub fn new(events: Vec<MinedEvent>, patterns: Vec<MinedPattern>, stats: MiningStats) -> Self {
        Self {
            events,
            patterns,
            stats,
        }
    }

    /// The frequent seasonal single events.
    #[must_use]
    pub fn events(&self) -> &[MinedEvent] {
        &self.events
    }

    /// The frequent seasonal patterns (k ≥ 2).
    #[must_use]
    pub fn patterns(&self) -> &[MinedPattern] {
        &self.patterns
    }

    /// Run statistics.
    #[must_use]
    pub fn stats(&self) -> &MiningStats {
        &self.stats
    }

    /// Total number of frequent seasonal patterns, counting single events.
    #[must_use]
    pub fn total_patterns(&self) -> usize {
        self.events.len() + self.patterns.len()
    }

    /// The patterns of length `k`.
    #[must_use]
    pub fn patterns_of_len(&self, k: usize) -> Vec<&MinedPattern> {
        self.patterns
            .iter()
            .filter(|p| p.pattern().len() == k)
            .collect()
    }

    /// Whether a structurally identical pattern was found.
    #[must_use]
    pub fn contains_pattern(&self, pattern: &TemporalPattern) -> bool {
        self.patterns.iter().any(|p| p.pattern() == pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationKind;
    use stpm_timeseries::{SeriesId, SymbolId};

    fn label(series: u32, symbol: u16) -> EventLabel {
        EventLabel::new(SeriesId(series), SymbolId(symbol))
    }

    fn registry() -> EventRegistry {
        let mut reg = EventRegistry::new();
        reg.register_series("C", &["0".into(), "1".into()]);
        reg.register_series("D", &["0".into(), "1".into()]);
        reg
    }

    fn sample_pattern() -> MinedPattern {
        MinedPattern::new(
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false),
            vec![1, 2, 3],
            Seasons::default(),
        )
    }

    #[test]
    fn mined_pattern_accessors_and_display() {
        let p = sample_pattern();
        assert_eq!(p.pattern().len(), 2);
        assert_eq!(p.support(), &[1, 2, 3]);
        assert_eq!(p.seasons().count(), 0);
        let text = p.display(&registry());
        assert!(text.contains("C:1"));
        assert!(text.contains("support: 3"));
    }

    #[test]
    fn report_aggregation() {
        let stats = MiningStats {
            levels: vec![
                LevelStats {
                    k: 2,
                    candidate_groups: 10,
                    candidate_patterns: 6,
                    frequent_patterns: 4,
                    footprint_bytes: 100,
                    ..LevelStats::default()
                },
                LevelStats {
                    k: 3,
                    candidate_groups: 3,
                    candidate_patterns: 2,
                    frequent_patterns: 1,
                    footprint_bytes: 40,
                    classifier_calls_saved: 12,
                    adjacency_pruned_candidates: 7,
                },
            ],
            ..MiningStats::default()
        };
        assert_eq!(stats.total_frequent_patterns(), 5);
        assert_eq!(stats.total_candidate_patterns(), 8);
        assert_eq!(stats.total_classifier_calls_saved(), 12);
        assert_eq!(stats.total_adjacency_pruned_candidates(), 7);

        let report = MiningReport::new(
            vec![MinedEvent {
                label: label(0, 1),
                support: vec![1, 2],
                seasons: Seasons::default(),
            }],
            vec![sample_pattern()],
            stats,
        );
        assert_eq!(report.total_patterns(), 2);
        assert_eq!(report.events().len(), 1);
        assert_eq!(report.patterns().len(), 1);
        assert_eq!(report.patterns_of_len(2).len(), 1);
        assert!(report.patterns_of_len(3).is_empty());
        assert!(report.contains_pattern(sample_pattern().pattern()));
        assert_eq!(report.stats().levels.len(), 2);
    }
}
