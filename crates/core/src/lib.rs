//! # stpm-core
//!
//! Exact Seasonal Temporal Pattern Mining (**E-STPM**) — the primary
//! contribution of "Mining Seasonal Temporal Patterns in Time Series"
//! (ICDE 2023).
//!
//! Given a temporal sequence database `D_SEQ` (built by `stpm-timeseries`),
//! the [`StpmMiner`] finds every *frequent seasonal temporal pattern*: a set
//! of pairwise temporal relations (Follows / Contains / Overlaps) between
//! events whose occurrences concentrate into *seasons* that repeat with a
//! bounded distance, under the four user thresholds `maxPeriod`,
//! `minDensity`, `distInterval` and `minSeason`.
//!
//! The crate provides:
//!
//! * the temporal-relation model with the tolerance buffer ε and minimal
//!   overlap duration `d_o` ([`relation`]),
//! * support sets, near support sets, seasons and the `maxSeason`
//!   anti-monotone bound ([`season`], [`support`]),
//! * the hierarchical lookup hash structures `HLH_1` / `HLH_k` ([`hlh`]),
//! * the mining algorithm itself with the Apriori-like and transitivity
//!   pruning techniques, individually switchable for the ablation studies
//!   ([`miner`], [`config::PruningMode`]),
//! * the engine-agnostic API every miner of the workspace implements:
//!   [`MiningEngine`], [`MiningInput`] and the unified [`EngineReport`]
//!   ([`engine`]).
//!
//! ## Example
//!
//! ```
//! use stpm_timeseries::{SymbolicDatabase, SymbolicSeries, Alphabet};
//! use stpm_core::{StpmConfig, StpmMiner, Threshold};
//!
//! let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
//! let c = SymbolicSeries::from_labels(
//!     "C", &["1","1","0", "1","0","0", "1","1","0", "0","0","0"], alphabet.clone()).unwrap();
//! let d = SymbolicSeries::from_labels(
//!     "D", &["1","0","0", "1","0","0", "1","1","0", "1","1","0"], alphabet).unwrap();
//! let dsyb = SymbolicDatabase::new(vec![c, d]).unwrap();
//! let dseq = dsyb.to_sequence_database(3).unwrap();
//!
//! let config = StpmConfig {
//!     max_period: Threshold::Absolute(2),
//!     min_density: Threshold::Absolute(2),
//!     dist_interval: (1, 10),
//!     min_season: 1,
//!     ..StpmConfig::default()
//! };
//! let result = StpmMiner::mine_sequences(&dseq, &config).unwrap();
//! assert!(result.patterns().iter().any(|p| p.pattern().len() >= 2));
//! ```
//!
//! To run E-STPM next to the other engines of the workspace through one code
//! path, use the [`MiningEngine`] trait instead:
//!
//! ```
//! # use stpm_timeseries::{SymbolicDatabase, SymbolicSeries, Alphabet};
//! # use stpm_core::{StpmConfig, StpmMiner, Threshold};
//! use stpm_core::{MiningEngine, MiningInput};
//! # let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
//! # let c = SymbolicSeries::from_labels(
//! #     "C", &["1","1","0", "1","0","0", "1","1","0", "0","0","0"], alphabet.clone()).unwrap();
//! # let d = SymbolicSeries::from_labels(
//! #     "D", &["1","0","0", "1","0","0", "1","1","0", "1","1","0"], alphabet).unwrap();
//! # let dsyb = SymbolicDatabase::new(vec![c, d]).unwrap();
//! # let dseq = dsyb.to_sequence_database(3).unwrap();
//! # let config = StpmConfig {
//! #     max_period: Threshold::Absolute(2),
//! #     min_density: Threshold::Absolute(2),
//! #     dist_interval: (1, 10),
//! #     min_season: 1,
//! #     ..StpmConfig::default()
//! # };
//! let input = MiningInput::new(&dsyb, &dseq, 3);
//! let engine: &dyn MiningEngine = &StpmMiner;
//! let report = engine.mine_with(&input, &config).unwrap();
//! assert!(report.total_patterns() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod fxhash;
pub mod hlh;
pub mod invariants;
pub mod miner;
pub mod pattern;
pub mod relation;
pub mod report;
pub mod season;
pub mod simd;
pub mod snapshot;
pub mod streaming;
pub mod support;

pub use config::{PruningMode, ResolvedConfig, StpmConfig, Threshold};
pub use engine::{accuracy, EngineReport, MiningEngine, MiningInput, PhaseTiming, PruningSummary};
pub use error::{Error, Result};
pub use fault::{
    failpoints, Failpoint, FaultyFs, MemoryBudget, RealFs, RetryPolicy, StorageBackend, StorageFile,
};
pub use hlh::{GroupId, Hlh1, HlhK, PatternId, RelationAdjacency, VerdictTable};
pub use invariants::InvariantViolation;
pub use miner::StpmMiner;
pub use pattern::{RelationTriple, TemporalPattern};
pub use relation::{classify_relation, RelationKind};
pub use report::{
    canonical_result_set, LevelStats, MinedEvent, MinedPattern, MiningReport, MiningStats,
};
pub use season::{
    find_seasons, seasons_count, support_is_frequent, SeasonSet, SeasonTracker, Seasons,
};
pub use snapshot::{CheckpointMeta, WalContents, SNAPSHOT_VERSION, WAL_VERSION};
pub use streaming::{StreamingMiner, STREAMING_ENGINE_NAME};
