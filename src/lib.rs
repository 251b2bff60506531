//! # FreqSTPfTS — Frequent Seasonal Temporal Pattern Mining from Time Series
//!
//! A Rust implementation of the FreqSTPfTS system from
//! *"Mining Seasonal Temporal Patterns in Time Series"* (ICDE 2023):
//! the exact miner **E-STPM**, the mutual-information-based approximate miner
//! **A-STPM**, the **APS-growth** baseline, the data-transformation
//! substrate, and the synthetic workload generators used by the evaluation
//! harness.
//!
//! This facade crate re-exports the public API of the workspace crates and
//! adds the [`Pipeline`] builder for the common "raw series in, seasonal
//! patterns out" case. All three miners implement the
//! [`MiningEngine`] trait and are selected with
//! [`Engine`]; every run returns the unified
//! [`EngineReport`].
//!
//! ```
//! use freqstpfts::prelude::*;
//!
//! // 1. Raw time series (two appliances sampled every 5 minutes).
//! let series = vec![
//!     TimeSeries::new("Cooker", vec![1.8, 1.2, 0.0, 1.1, 0.0, 0.0, 1.3, 1.4, 0.0, 0.0, 0.0, 0.0]),
//!     TimeSeries::new("Dishes", vec![2.0, 0.0, 0.0, 1.4, 0.0, 0.0, 1.2, 1.5, 0.0, 1.2, 1.1, 0.0]),
//! ];
//!
//! // 2. Configure thresholds and mine, mapping 3 raw samples per granule.
//! let config = StpmConfig {
//!     max_period: Threshold::Absolute(2),
//!     min_density: Threshold::Absolute(2),
//!     dist_interval: (1, 10),
//!     min_season: 1,
//!     ..StpmConfig::default()
//! };
//! let outcome = Pipeline::builder()
//!     .symbolizer(ThresholdSymbolizer::binary(0.5, "Off", "On"))
//!     .mapping_factor(3)
//!     .engine(Engine::Exact)
//!     .thresholds(config)
//!     .run(&series)
//!     .unwrap();
//! assert!(outcome.report.total_patterns() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use stpm_approx as approx;
pub use stpm_baseline as baseline;
pub use stpm_core as core;
pub use stpm_datagen as datagen;
pub use stpm_timeseries as timeseries;

use stpm_approx::AStpmMiner;
use stpm_baseline::ApsGrowth;
use stpm_core::fault::{failpoints, MemoryBudget, RealFs, RetryPolicy, StorageBackend};
use stpm_core::snapshot::{self, ByteReader, ByteWriter, CheckpointMeta};
use stpm_core::{
    EngineReport, MiningEngine, MiningInput, MiningReport, StpmConfig, StpmMiner, StreamingMiner,
};
use stpm_timeseries::{
    Alphabet, SequenceDatabase, SymbolId, SymbolicDatabase, SymbolicSeries, Symbolizer, TimeSeries,
};

/// The most commonly used items of the whole workspace, importable with a
/// single `use freqstpfts::prelude::*`.
pub mod prelude {
    pub use crate::{
        Engine, Pipeline, PipelineError, PipelineOutcome, RecoveryReport, StreamingPipeline,
    };
    pub use stpm_approx::AStpmMiner;
    pub use stpm_baseline::ApsGrowth;
    pub use stpm_core::{
        accuracy, failpoints, CheckpointMeta, EngineReport, FaultyFs, MemoryBudget, MinedPattern,
        MiningEngine, MiningInput, MiningReport, PruningMode, RealFs, RelationKind, RetryPolicy,
        StorageBackend, StpmConfig, StpmMiner, StreamingMiner, TemporalPattern, Threshold,
    };
    pub use stpm_datagen::{generate, DatasetProfile, DatasetSpec};
    pub use stpm_timeseries::{
        Alphabet, EqualWidthSymbolizer, EventLabel, QuantileSymbolizer, SaxSymbolizer,
        SequenceDatabase, SymbolicDatabase, SymbolicSeries, Symbolizer, ThresholdSymbolizer,
        TimeSeries,
    };
}

/// Which mining engine a [`Pipeline`] runs. Each variant instantiates one of
/// the paper's three contenders; custom engines can be plugged in with
/// [`Pipeline::engine_impl`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// The exact miner E-STPM (`stpm-core`).
    Exact,
    /// The approximate miner A-STPM (`stpm-approx`). With `mu: None` the µ
    /// threshold is derived from the seasonality thresholds via the Lambert-W
    /// bound (the paper's default); with `mu: Some(x)` it is fixed to `x`.
    Approximate {
        /// Optional fixed µ threshold.
        mu: Option<f64>,
    },
    /// The APS-growth baseline (`stpm-baseline`).
    ApsGrowth,
}

impl Engine {
    /// Instantiates the engine.
    #[must_use]
    pub fn instantiate(&self) -> Box<dyn MiningEngine> {
        match self {
            Engine::Exact => Box::new(StpmMiner),
            Engine::Approximate { mu: None } => Box::new(AStpmMiner::new()),
            Engine::Approximate { mu: Some(mu) } => Box::new(AStpmMiner::with_mu(*mu)),
            Engine::ApsGrowth => Box::new(ApsGrowth),
        }
    }
}

/// Everything a pipeline run produces: the intermediate databases (useful for
/// inspection and for running other engines on the same data) plus the
/// engine's unified report.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The symbolic database `D_SYB` — `Some` when the pipeline built it from
    /// raw series ([`Pipeline::run`]); `None` when the caller supplied it
    /// ([`Pipeline::run_symbolic`]), since the caller already owns that
    /// database and cloning it per run would be pure overhead in sweep loops.
    pub dsyb: Option<SymbolicDatabase>,
    /// The temporal sequence database `D_SEQ`.
    pub dseq: SequenceDatabase,
    /// The engine's report: frequent seasonal events and patterns, per-phase
    /// timings and pruning statistics.
    pub report: EngineReport,
}

/// Errors of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// `run(&[TimeSeries])` was called on a pipeline without a symbolizer.
    MissingSymbolizer,
    /// The data-transformation phase failed.
    Transform(stpm_timeseries::Error),
    /// The mining phase failed.
    Mining(stpm_core::Error),
    /// Snapshot, write-ahead-log or recovery handling failed — a typed
    /// [`stpm_core::Error`] snapshot variant (corruption, version, config
    /// mismatch or I/O).
    Persistence(stpm_core::Error),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::MissingSymbolizer => write!(
                f,
                "pipeline has no symbolizer: call .symbolizer(...) before .run(...), \
                 or symbolize yourself and call .run_symbolic(...)"
            ),
            PipelineError::Transform(e) => write!(f, "data transformation failed: {e}"),
            PipelineError::Mining(e) => write!(f, "mining failed: {e}"),
            PipelineError::Persistence(e) => write!(f, "persistence failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The end-to-end FreqSTPfTS pipeline: symbolization → sequence mapping →
/// seasonal temporal pattern mining, with the engine chosen per run.
///
/// The builder methods are chainable and the terminal methods ([`run`],
/// [`run_symbolic`]) borrow the pipeline, so one configured pipeline can mine
/// many datasets.
///
/// [`run`]: Pipeline::run
/// [`run_symbolic`]: Pipeline::run_symbolic
pub struct Pipeline {
    symbolizer: Option<Box<dyn Symbolizer + Send>>,
    mapping_factor: u64,
    config: StpmConfig,
    threads: Option<usize>,
    engine: Box<dyn MiningEngine>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::builder()
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("symbolizer", &self.symbolizer.is_some())
            .field("mapping_factor", &self.mapping_factor)
            .field("config", &self.config)
            .field("threads", &self.threads)
            .field("engine", &self.engine.name())
            .finish()
    }
}

impl Pipeline {
    /// Starts a pipeline with defaults: no symbolizer, mapping factor 1,
    /// default thresholds, the exact engine.
    #[must_use]
    pub fn builder() -> Self {
        Self {
            symbolizer: None,
            mapping_factor: 1,
            config: StpmConfig::default(),
            threads: None,
            engine: Box::new(StpmMiner),
        }
    }

    /// Sets the symbolizer applied to every raw series by [`Pipeline::run`].
    /// Pipelines that start from an already-symbolized database
    /// ([`Pipeline::run_symbolic`]) do not need one.
    #[must_use]
    pub fn symbolizer(mut self, symbolizer: impl Symbolizer + Send + 'static) -> Self {
        self.symbolizer = Some(Box::new(symbolizer));
        self
    }

    /// Sets the sequence-mapping factor `m` (raw instants per `D_SEQ`
    /// granule). Defaults to 1.
    #[must_use]
    pub fn mapping_factor(mut self, m: u64) -> Self {
        self.mapping_factor = m;
        self
    }

    /// Sets the seasonality thresholds. Defaults to [`StpmConfig::default`].
    #[must_use]
    pub fn thresholds(mut self, config: StpmConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the number of worker threads the mining engines use per candidate
    /// level (`0` = all available cores). Mining output is identical for
    /// every thread count. Takes precedence over [`StpmConfig::threads`]
    /// regardless of the order the builder methods are called in.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Selects one of the built-in engines. Defaults to [`Engine::Exact`].
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine.instantiate();
        self
    }

    /// Plugs in a custom [`MiningEngine`] implementation.
    #[must_use]
    pub fn engine_impl(mut self, engine: Box<dyn MiningEngine>) -> Self {
        self.engine = engine;
        self
    }

    /// Name of the currently selected engine.
    #[must_use]
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Runs the full pipeline on raw time series: symbolization with the
    /// configured symbolizer, sequence mapping, mining with the configured
    /// engine.
    ///
    /// # Errors
    /// [`PipelineError::MissingSymbolizer`] when no symbolizer was set;
    /// otherwise propagates validation errors from either phase.
    pub fn run(&self, series: &[TimeSeries]) -> Result<PipelineOutcome, PipelineError> {
        let symbolizer = self
            .symbolizer
            .as_deref()
            .ok_or(PipelineError::MissingSymbolizer)?;
        let symbolic: Result<Vec<_>, _> = series.iter().map(|s| symbolizer.symbolize(s)).collect();
        let dsyb = SymbolicDatabase::new(symbolic.map_err(PipelineError::Transform)?)
            .map_err(PipelineError::Transform)?;
        let (dseq, report) = self.mine_symbolic(&dsyb)?;
        Ok(PipelineOutcome {
            dsyb: Some(dsyb),
            dseq,
            report,
        })
    }

    /// Runs the pipeline from an already-symbolized database — the entry
    /// point for data symbolized with per-series symbolizers
    /// ([`SymbolicDatabase::from_series_with`]) or produced by the dataset
    /// generators. The outcome's `dsyb` is `None`: the caller keeps ownership
    /// of the database it passed in.
    ///
    /// # Errors
    /// Propagates sequence-mapping and mining errors.
    pub fn run_symbolic(&self, dsyb: &SymbolicDatabase) -> Result<PipelineOutcome, PipelineError> {
        let (dseq, report) = self.mine_symbolic(dsyb)?;
        Ok(PipelineOutcome {
            dsyb: None,
            dseq,
            report,
        })
    }

    /// Converts the configured pipeline into a [`StreamingPipeline`] that
    /// absorbs raw-sample batches incrementally instead of mining one fixed
    /// database — the builder (symbolizer, mapping factor, thresholds,
    /// threads) is reused as-is. The streaming engine is the exact miner;
    /// an [`Engine`] selection made on the builder is ignored.
    #[must_use]
    pub fn into_streaming(self) -> StreamingPipeline {
        let mut config = self.config;
        if let Some(threads) = self.threads {
            config.threads = threads;
        }
        StreamingPipeline {
            symbolizer: self.symbolizer,
            mapping_factor: self.mapping_factor,
            config,
            state: None,
            wal: None,
            storage: Box::new(RealFs),
            retry: RetryPolicy::default(),
            budget: None,
            spill_path: None,
            io_retries: 0,
        }
    }

    fn mine_symbolic(
        &self,
        dsyb: &SymbolicDatabase,
    ) -> Result<(SequenceDatabase, EngineReport), PipelineError> {
        let dseq = dsyb
            .to_sequence_database(self.mapping_factor)
            .map_err(PipelineError::Transform)?;
        let input = MiningInput::new(dsyb, &dseq, self.mapping_factor);
        let mut config = self.config.clone();
        if let Some(threads) = self.threads {
            config.threads = threads;
        }
        let report = self
            .engine
            .mine_with(&input, &config)
            .map_err(PipelineError::Mining)?;
        Ok((dseq, report))
    }
}

/// The accumulated state of a [`StreamingPipeline`] once the first batch has
/// arrived: the growing databases plus the incremental miner over them.
struct StreamState {
    dsyb: SymbolicDatabase,
    dseq: SequenceDatabase,
    miner: MinerSlot,
}

/// Where the incremental miner currently lives: in memory, or spilled to a
/// cold file because a [`MemoryBudget`] was exceeded. The raw databases
/// (`dsyb`/`dseq`) always stay in memory — the budget targets the miner's
/// pattern arenas and season trackers, which dominate the footprint.
enum MinerSlot {
    /// The miner is live in memory (boxed: the miner dwarfs the spilled
    /// variant, and moving the slot should not copy the arenas).
    Live(Box<StreamingMiner>),
    /// The miner was spilled; only its checkpoint position is retained.
    Spilled(SpilledMiner),
}

/// What remains in memory of a spilled miner: the checkpoint position the
/// cold file was written under, used to answer observability queries without
/// rehydrating and to restore the pending-granule watermark on rehydration.
struct SpilledMiner {
    meta: CheckpointMeta,
}

impl MinerSlot {
    /// The miner's checkpoint position, served from memory in both states.
    fn meta(&self) -> CheckpointMeta {
        match self {
            MinerSlot::Live(miner) => miner.checkpoint_meta(),
            MinerSlot::Spilled(spilled) => spilled.meta,
        }
    }
}

/// The streaming counterpart of [`Pipeline`]: raw samples arrive in batches,
/// are symbolized once (only the new samples), folded into the growing
/// `D_SYB`/`D_SEQ`, and absorbed by the incremental
/// [`StreamingMiner`] — every [`append`](StreamingPipeline::append) returns a
/// checkpoint report that is exactly what a batch re-mine of the full prefix
/// would report.
///
/// Built from a configured [`Pipeline`] via [`Pipeline::into_streaming`]:
///
/// ```
/// use freqstpfts::prelude::*;
///
/// let config = StpmConfig {
///     max_period: Threshold::Absolute(2),
///     min_density: Threshold::Absolute(2),
///     dist_interval: (1, 10),
///     min_season: 1,
///     ..StpmConfig::default()
/// };
/// let mut stream = Pipeline::builder()
///     .symbolizer(ThresholdSymbolizer::binary(0.5, "Off", "On"))
///     .mapping_factor(3)
///     .thresholds(config)
///     .into_streaming();
/// // Day one: six samples (two granules).
/// stream.append(&[
///     TimeSeries::new("Cooker", vec![1.8, 1.2, 0.0, 1.1, 0.0, 0.0]),
///     TimeSeries::new("Dishes", vec![2.0, 0.0, 0.0, 1.4, 0.0, 0.0]),
/// ]).unwrap();
/// // Day two: six more — only these are symbolized and mined.
/// let report = stream.append(&[
///     TimeSeries::new("Cooker", vec![1.3, 1.4, 0.0, 0.0, 0.0, 0.0]),
///     TimeSeries::new("Dishes", vec![1.2, 1.5, 0.0, 1.2, 1.1, 0.0]),
/// ]).unwrap();
/// assert_eq!(stream.num_granules(), 4);
/// assert!(report.total_patterns() > 0);
/// ```
///
/// Exactness across appends requires a *pointwise* symbolizer (one whose
/// encoding of a sample does not depend on later samples —
/// [`ThresholdSymbolizer`](stpm_timeseries::ThresholdSymbolizer), or any
/// symbolizer fitted once up front). Data-dependent symbolizers refitted per
/// batch would re-encode history differently than a batch run.
pub struct StreamingPipeline {
    symbolizer: Option<Box<dyn Symbolizer + Send>>,
    mapping_factor: u64,
    config: StpmConfig,
    state: Option<StreamState>,
    wal: Option<WalHandle>,
    /// Every filesystem operation of the persistence path goes through this
    /// backend — [`RealFs`] in production, a fault-injecting
    /// [`FaultyFs`](stpm_core::FaultyFs) under test.
    /// `Send + Sync` so a whole [`StreamingPipeline`] can move across the
    /// worker threads of a multi-tenant service.
    storage: Box<dyn StorageBackend + Send + Sync>,
    /// Applied to WAL appends, snapshot writes and recovery reads.
    retry: RetryPolicy,
    /// Optional cap on the live miner footprint; exceeding it spills the
    /// miner to `spill_path`.
    budget: Option<MemoryBudget>,
    /// Where a budget-exceeding miner is spilled. Always `Some` when
    /// `budget` is.
    spill_path: Option<std::path::PathBuf>,
    /// Transient I/O retries absorbed so far (surfaced through
    /// [`StreamingPipeline::checkpoint_meta`] and [`RecoveryReport`]).
    io_retries: u64,
}

/// An attached write-ahead log: the open file, its path (kept so
/// recovery-time truncation can reopen it), and the durable length appends
/// continue from — tracked so a torn retried append can first truncate away
/// its own partial write, keeping every successfully acknowledged record
/// reachable to `wal_read`'s longest-durable-prefix scan.
struct WalHandle {
    file: Box<dyn stpm_core::StorageFile + Send>,
    path: std::path::PathBuf,
    len: u64,
}

impl std::fmt::Debug for StreamingPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingPipeline")
            .field("symbolizer", &self.symbolizer.is_some())
            .field("mapping_factor", &self.mapping_factor)
            .field("config", &self.config)
            .field("num_granules", &self.num_granules())
            .field(
                "wal",
                &self.wal.as_ref().map(|w| w.path.display().to_string()),
            )
            .field("budget", &self.budget)
            .field("io_retries", &self.io_retries)
            .finish()
    }
}

impl StreamingPipeline {
    /// Symbolizes a batch of raw samples with the configured symbolizer and
    /// absorbs it. Each [`TimeSeries`] carries the *new* samples of one
    /// series (same names and order on every call).
    ///
    /// # Errors
    /// [`PipelineError::MissingSymbolizer`] without a symbolizer; otherwise
    /// as [`StreamingPipeline::append_symbolic`].
    pub fn append(&mut self, batch: &[TimeSeries]) -> Result<EngineReport, PipelineError> {
        let symbolizer = self
            .symbolizer
            .as_deref()
            .ok_or(PipelineError::MissingSymbolizer)?;
        let symbolic: Result<Vec<_>, _> = batch.iter().map(|s| symbolizer.symbolize(s)).collect();
        let dsyb = SymbolicDatabase::new(symbolic.map_err(PipelineError::Transform)?)
            .map_err(PipelineError::Transform)?;
        self.append_symbolic(&dsyb)
    }

    /// Absorbs a batch of already-symbolized samples and returns the
    /// checkpoint report of the grown prefix. Samples that do not fill a
    /// complete granule stay pending until a later append completes them.
    ///
    /// With a write-ahead log attached ([`StreamingPipeline::attach_wal`]),
    /// the batch is additionally appended to the log and synced to disk
    /// before this method returns, so a crash before the next snapshot
    /// loses nothing durable.
    ///
    /// # Errors
    /// Transform errors when the batch does not continue the absorbed series
    /// set; mining errors from the incremental engine;
    /// [`PipelineError::Persistence`] when WAL logging fails after retries
    /// (the batch *is* absorbed in memory, but its durability is not
    /// guaranteed) or when a memory budget was exceeded and the spill
    /// itself failed ([`stpm_core::Error::BudgetExceeded`]; the batch is
    /// absorbed and durable, only the eviction fell through).
    // lint: durable
    pub fn append_symbolic(
        &mut self,
        batch: &SymbolicDatabase,
    ) -> Result<EngineReport, PipelineError> {
        let start_instants = self.state.as_ref().map_or(0, |s| s.dsyb.len() as u64);
        self.absorb_symbolic(batch)?;
        if let Some(wal) = self.wal.as_mut() {
            let record = snapshot::wal_encode_record(&encode_symbolic_batch(start_instants, batch));
            let retry = self.retry;
            let mut retries = 0_u64;
            let base_len = wal.len;
            let appended = retry.run(failpoints::WAL_APPEND, &mut retries, || {
                // Truncate first: a torn previous attempt left garbage after
                // `base_len`, and records written after garbage would be
                // unreachable to replay.
                wal.file.set_len(failpoints::WAL_APPEND, base_len)?;
                wal.file.write_all(failpoints::WAL_APPEND, &record)?;
                wal.file.sync_all(failpoints::WAL_APPEND_SYNC)
            });
            self.io_retries += retries;
            appended.map_err(|e| PipelineError::Persistence(stpm_core::Error::snapshot_io(&e)))?;
            wal.len = base_len + record.len() as u64;
        }
        // The batch is durable (or no durability was requested): it may now
        // be acknowledged with a checkpoint report.
        let report = self.checkpoint()?;
        self.enforce_budget()?;
        Ok(report)
    }

    /// Folds a symbolized batch into the in-memory state (databases + miner)
    /// without WAL logging and without emitting a checkpoint report — the
    /// shared core of [`StreamingPipeline::append_symbolic`] and WAL replay,
    /// where mining a full report per replayed record would make recovery
    /// cost records × report size instead of one absorb per record.
    fn absorb_symbolic(&mut self, batch: &SymbolicDatabase) -> Result<(), PipelineError> {
        if self.mapping_factor == 0 {
            return Err(PipelineError::Transform(
                stpm_timeseries::Error::InvalidGranularity {
                    reason: "the sequence-mapping factor m must be at least 1".into(),
                },
            ));
        }
        // A spilled miner must be back in memory before it can absorb.
        self.ensure_live()?;
        match &mut self.state {
            None => {
                let dsyb = batch.clone();
                let dseq = SequenceDatabase::from_sequences(
                    Vec::new(),
                    dsyb.registry().clone(),
                    self.mapping_factor,
                    dsyb.num_series(),
                );
                let miner = StreamingMiner::new(&self.config, dsyb.registry())
                    .map_err(PipelineError::Mining)?;
                self.state = Some(StreamState {
                    dsyb,
                    dseq,
                    miner: MinerSlot::Live(Box::new(miner)),
                });
            }
            Some(state) => {
                state
                    .dsyb
                    .append_batch(batch)
                    .map_err(PipelineError::Transform)?;
            }
        }
        let state = self.state.as_mut().expect("state was just initialised");
        let appended = state
            .dseq
            .append_from_symbolic(&state.dsyb)
            .map_err(PipelineError::Transform)?;
        let MinerSlot::Live(miner) = &mut state.miner else {
            unreachable!("ensure_live rehydrated the miner above");
        };
        miner
            .append_batch(appended)
            .map_err(PipelineError::Mining)?;
        Ok(())
    }

    /// Rehydrates a spilled miner from its cold file, restoring the
    /// pending-granule watermark the spill was taken under. A no-op when the
    /// miner is live (the common case — this is the degraded path's cost).
    fn ensure_live(&mut self) -> Result<(), PipelineError> {
        let Some(state) = &mut self.state else {
            return Ok(());
        };
        let MinerSlot::Spilled(spilled) = &state.miner else {
            return Ok(());
        };
        let meta = spilled.meta;
        let path = self
            .spill_path
            .clone()
            .ok_or_else(|| internal_error("a miner is spilled but no spill path is configured"))?;
        let retry = self.retry;
        let mut retries = 0_u64;
        let bytes = retry.run(failpoints::BUDGET_REHYDRATE_READ, &mut retries, || {
            self.storage.read(failpoints::BUDGET_REHYDRATE_READ, &path)
        });
        self.io_retries += retries;
        let bytes =
            bytes.map_err(|e| PipelineError::Persistence(stpm_core::Error::snapshot_io(&e)))?;
        let miner = StreamingMiner::rehydrate(&self.config, &bytes, meta.pending_granules)
            .map_err(PipelineError::Persistence)?;
        let state = self.state.as_mut().expect("state presence checked above");
        state.miner = MinerSlot::Live(Box::new(miner));
        Ok(())
    }

    /// Spills the live miner to the configured cold file when its footprint
    /// exceeds the memory budget. Called after every acknowledged append;
    /// a no-op without a budget or while under it.
    fn enforce_budget(&mut self) -> Result<(), PipelineError> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        let Some(state) = &mut self.state else {
            return Ok(());
        };
        let MinerSlot::Live(miner) = &state.miner else {
            return Ok(());
        };
        let live_bytes = miner.footprint_bytes() as u64;
        if !budget.is_exceeded_by(live_bytes) {
            return Ok(());
        }
        let path = self
            .spill_path
            .clone()
            .ok_or_else(|| internal_error("a memory budget is set but no spill path is"))?;
        let bytes = miner.encode_spill();
        let meta = miner.checkpoint_meta();
        let retry = self.retry;
        let mut retries = 0_u64;
        let written = retry.run(failpoints::BUDGET_SPILL_WRITE, &mut retries, || {
            let mut file = self.storage.create(failpoints::BUDGET_SPILL_WRITE, &path)?;
            file.write_all(failpoints::BUDGET_SPILL_WRITE, &bytes)
        });
        self.io_retries += retries;
        match written {
            Ok(()) => {
                // Only now may the live miner be dropped.
                let state = self.state.as_mut().expect("state presence checked above");
                state.miner = MinerSlot::Spilled(SpilledMiner { meta });
                Ok(())
            }
            // Graceful degradation has a typed failure mode of its own: the
            // miner stays live (nothing is lost), and the caller learns the
            // budget could not be honoured.
            Err(e) => Err(PipelineError::Persistence(
                stpm_core::Error::BudgetExceeded {
                    live_bytes,
                    budget_bytes: budget.max_live_bytes(),
                    reason: e.to_string(),
                },
            )),
        }
    }

    /// Emits the checkpoint report of everything absorbed so far without
    /// appending anything. Before the first *complete* granule the report is
    /// simply empty (zero granules, no patterns) — an append whose samples
    /// all stay pending is a success, not an error, so callers never retry
    /// (and thereby duplicate) a batch that was absorbed.
    ///
    /// # Errors
    /// Mining errors from the incremental engine.
    pub fn checkpoint(&self) -> Result<EngineReport, PipelineError> {
        match &self.state {
            Some(StreamState {
                miner: MinerSlot::Live(miner),
                ..
            }) if miner.num_granules() > 0 => miner.checkpoint().map_err(PipelineError::Mining),
            Some(StreamState {
                miner: MinerSlot::Spilled(spilled),
                ..
            }) if spilled.meta.granules_absorbed > 0 => {
                // Reporting on a spilled miner rehydrates a transient copy;
                // the persistent slot stays cold. Identical bytes in, so the
                // report is identical to an unconstrained run's.
                let miner = self.read_spilled(spilled)?;
                miner.checkpoint().map_err(PipelineError::Mining)
            }
            state => {
                // Nothing mined yet: an empty report over whatever registry
                // is known so far.
                let registry = state
                    .as_ref()
                    .map(|s| s.dsyb.registry().clone())
                    .unwrap_or_default();
                let total_series = registry.num_series();
                let pruning = stpm_core::PruningSummary {
                    kept_series: (0..total_series)
                        .map(|i| timeseries::SeriesId(u32::try_from(i).expect("series fits u32")))
                        .collect(),
                    total_series,
                    total_events: registry.num_events(),
                    ..stpm_core::PruningSummary::default()
                };
                Ok(EngineReport::new(
                    stpm_core::STREAMING_ENGINE_NAME,
                    MiningReport::default(),
                    registry,
                    Vec::new(),
                    pruning,
                    0,
                ))
            }
        }
    }

    /// Reads and decodes the spill file of a spilled miner without touching
    /// the pipeline's slot — shared by read-only reporting (`checkpoint`)
    /// which must not mutate, unlike `ensure_live`. Retry bookkeeping is
    /// local (a `&self` reader cannot update the pipeline counter).
    fn read_spilled(&self, spilled: &SpilledMiner) -> Result<StreamingMiner, PipelineError> {
        let path = self
            .spill_path
            .as_deref()
            .ok_or_else(|| internal_error("a miner is spilled but no spill path is configured"))?;
        let mut retries = 0_u64;
        let bytes = self
            .retry
            .run(failpoints::BUDGET_REHYDRATE_READ, &mut retries, || {
                self.storage.read(failpoints::BUDGET_REHYDRATE_READ, path)
            })
            .map_err(|e| PipelineError::Persistence(stpm_core::Error::snapshot_io(&e)))?;
        StreamingMiner::rehydrate(&self.config, &bytes, spilled.meta.pending_granules)
            .map_err(PipelineError::Persistence)
    }

    /// Number of complete granules absorbed so far.
    #[must_use]
    pub fn num_granules(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.miner.meta().granules_absorbed)
    }

    /// Raw instants received that do not yet fill a complete granule.
    #[must_use]
    pub fn pending_instants(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.dsyb.len() as u64 % self.mapping_factor.max(1))
    }

    /// The accumulated symbolic database, once the first batch has arrived.
    #[must_use]
    pub fn dsyb(&self) -> Option<&SymbolicDatabase> {
        self.state.as_ref().map(|s| &s.dsyb)
    }

    /// The accumulated temporal sequence database, once the first batch has
    /// arrived.
    #[must_use]
    pub fn dseq(&self) -> Option<&SequenceDatabase> {
        self.state.as_ref().map(|s| &s.dseq)
    }

    /// Granules absorbed since the most recent snapshot — the state a crash
    /// would lose without a write-ahead log. Zero before the first batch.
    #[must_use]
    pub fn pending_granules(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.miner.meta().pending_granules)
    }

    /// The durable-state position of the underlying miner: checkpoint id,
    /// granules absorbed, patterns interned, granules pending since the last
    /// snapshot, and transient I/O retries absorbed by this pipeline.
    /// All-zero before the first batch. Reading it never forces a mine.
    #[must_use]
    pub fn checkpoint_meta(&self) -> CheckpointMeta {
        let mut meta = self.state.as_ref().map_or(
            CheckpointMeta {
                checkpoint_id: 0,
                granules_absorbed: 0,
                patterns_interned: 0,
                pending_granules: 0,
                io_retries: 0,
            },
            |s| s.miner.meta(),
        );
        meta.io_retries = self.io_retries;
        meta
    }

    /// Transient I/O retries absorbed by the persistence layer so far (WAL
    /// appends, snapshot writes, recovery and spill reads). A growing value
    /// under a healthy workload signals a degrading disk before it turns
    /// into permanent failures.
    #[must_use]
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Approximate in-memory footprint of the pipeline's streaming state:
    /// the miner's arena footprint (zero while spilled) plus the growing
    /// symbolic and sequence databases. An estimate for admission-control
    /// and eviction accounting, not an allocator-exact measurement.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let Some(state) = &self.state else {
            return 0;
        };
        let miner = match &state.miner {
            MinerSlot::Live(miner) => miner.footprint_bytes() as u64,
            MinerSlot::Spilled(_) => 0,
        };
        let series = state.dsyb.num_series() as u64;
        // 2 bytes per stored symbol (`SymbolId` is a u16) plus a nominal
        // per-granule instance overhead for the sequence database.
        let dsyb = state.dsyb.len() as u64 * series * 2;
        let dseq = state.dseq.num_granules() * series * 24;
        miner + dsyb + dseq
    }

    /// Replaces the storage backend every subsequent persistence operation
    /// goes through. [`RealFs`] by default; tests inject a
    /// [`FaultyFs`](stpm_core::FaultyFs) here. Call before
    /// [`attach_wal`](StreamingPipeline::attach_wal) — an already attached
    /// WAL keeps the handle it was opened with.
    pub fn set_storage(&mut self, storage: impl StorageBackend + Send + Sync + 'static) {
        self.storage = Box::new(storage);
    }

    /// Replaces the retry policy applied to WAL appends, snapshot writes
    /// and recovery reads. The default retries transient errors twice with
    /// 1 ms exponential backoff; [`RetryPolicy::none`] disables retrying.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Caps the live miner footprint at `budget`, spilling the miner to
    /// `spill_path` whenever an acknowledged append leaves it over the cap.
    /// The spill file is a process-lifetime cache, not durable state —
    /// crash recovery goes through the snapshot and WAL as always.
    pub fn set_memory_budget(
        &mut self,
        budget: MemoryBudget,
        spill_path: impl AsRef<std::path::Path>,
    ) {
        self.budget = Some(budget);
        self.spill_path = Some(spill_path.as_ref().to_path_buf());
    }

    /// Removes the memory budget. A currently spilled miner stays spilled
    /// until the next append rehydrates it.
    pub fn clear_memory_budget(&mut self) {
        self.budget = None;
    }
}

/// What [`StreamingPipeline::recover`] reconstructed on startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Granules restored from the snapshot (before WAL replay).
    pub restored_granules: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Whether the WAL was fully durable (`false` when a torn tail — the
    /// expected result of a crash mid-append — was dropped).
    pub wal_was_clean: bool,
    /// Transient I/O retries absorbed while reading the snapshot and WAL.
    pub io_retries: u64,
}

/// Facade-level section tags of a pipeline snapshot (`kind = 2`): the
/// pipeline parameters, the symbolic database, and an embedded miner
/// snapshot.
const SEC_PIPE: u32 = 0x10;
const SEC_DSYB: u32 = 0x11;
const SEC_MINER: u32 = 0x12;

impl StreamingPipeline {
    /// Serializes the pipeline's full durable state — mapping factor,
    /// symbolic database and the embedded miner snapshot — to the file at
    /// `path` **atomically and durably**, then truncates the attached
    /// write-ahead log (if any) back to its header: everything the log held
    /// is now covered by the snapshot.
    ///
    /// The bytes are written to a temporary sibling file, fsynced, renamed
    /// over `path`, and the parent directory is fsynced — so at every instant
    /// `path` holds either the complete previous snapshot or the complete new
    /// one, and the WAL is only truncated *after* the new snapshot is
    /// durable. A crash anywhere inside this method therefore loses nothing:
    /// recovery finds an intact snapshot plus a WAL that still covers
    /// whatever that snapshot does not.
    ///
    /// The symbolizer is *not* serialized (symbolizers are arbitrary user
    /// code); the restoring side configures it through the builder exactly as
    /// on first startup. To snapshot into something other than a file, see
    /// [`StreamingPipeline::snapshot_to_writer`].
    ///
    /// # Errors
    /// [`PipelineError::Persistence`] on write, sync, rename or
    /// WAL-truncation failures. On error the checkpoint accounting
    /// ([`pending_granules`](StreamingPipeline::pending_granules),
    /// [`checkpoint_meta`](StreamingPipeline::checkpoint_meta)) is unchanged
    /// and the WAL is left untouched, so the failed snapshot can simply be
    /// retried.
    // lint: durable
    pub fn snapshot_to(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), PipelineError> {
        let io = |e: &std::io::Error| PipelineError::Persistence(stpm_core::Error::snapshot_io(e));
        self.ensure_live()?;
        let path = path.as_ref();
        let bytes = self.encode_snapshot()?;
        let mut tmp_name = path
            .file_name()
            .map_or_else(|| "snapshot".into(), std::ffi::OsString::from);
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let retry = self.retry;
        let mut retries = 0_u64;
        let written = retry
            .run(failpoints::SNAPSHOT_WRITE, &mut retries, || {
                // Each attempt recreates (truncates) the tmp sibling, so a
                // torn previous attempt cannot leak into this one.
                let mut file = self.storage.create(failpoints::SNAPSHOT_CREATE_TMP, &tmp)?;
                file.write_all(failpoints::SNAPSHOT_WRITE, &bytes)?;
                file.sync_all(failpoints::SNAPSHOT_SYNC)
            })
            .and_then(|()| {
                retry.run(failpoints::SNAPSHOT_RENAME, &mut retries, || {
                    self.storage.rename(failpoints::SNAPSHOT_RENAME, &tmp, path)
                })
            })
            .and_then(|()| {
                // Make the rename itself durable before declaring the old
                // WAL contents covered.
                match parent_dir(path) {
                    Some(parent) => self.storage.sync_dir(failpoints::SNAPSHOT_DIR_SYNC, parent),
                    None => Ok(()),
                }
            });
        self.io_retries += retries;
        if let Err(e) = written {
            // Never leave the tmp sibling behind: a retry loop around a
            // failing snapshot must not accumulate orphans.
            let _ = self
                .storage
                .remove_file(failpoints::SNAPSHOT_REMOVE_TMP, &tmp);
            return Err(io(&e));
        }
        if let Some(StreamState {
            miner: MinerSlot::Live(miner),
            ..
        }) = &mut self.state
        {
            miner.mark_snapshot_durable();
        }
        self.reset_wal()
    }

    /// Serializes the same snapshot as [`StreamingPipeline::snapshot_to`] to
    /// an arbitrary writer — for callers persisting to object stores,
    /// sockets, or test buffers. Unlike `snapshot_to`, this does **not**
    /// truncate the write-ahead log: a generic writer gives no durability
    /// point, so the caller must make the bytes durable itself and only then
    /// call [`StreamingPipeline::reset_wal`]. Truncating earlier re-opens
    /// the crash window this subsystem exists to close.
    ///
    /// # Errors
    /// [`PipelineError::Persistence`] when the writer fails; the checkpoint
    /// accounting is then unchanged.
    pub fn snapshot_to_writer(
        &mut self,
        out: &mut impl std::io::Write,
    ) -> Result<(), PipelineError> {
        self.ensure_live()?;
        let bytes = self.encode_snapshot()?;
        // The probe gives fault plans a hook on this path even though the
        // writer itself is caller-supplied and outside the backend.
        self.storage
            .failpoint(failpoints::WRITER_WRITE)
            .and_then(|()| out.write_all(&bytes))
            .map_err(|e| PipelineError::Persistence(stpm_core::Error::snapshot_io(&e)))?;
        if let Some(StreamState {
            miner: MinerSlot::Live(miner),
            ..
        }) = &mut self.state
        {
            miner.mark_snapshot_durable();
        }
        Ok(())
    }

    /// Encodes the full pipeline snapshot without committing the miner's
    /// checkpoint bump (the embedded miner section carries the *next*
    /// checkpoint id; callers commit via `mark_snapshot_durable` once the
    /// bytes landed). Callers `ensure_live` first — a spilled miner cannot
    /// be encoded from its metadata alone.
    fn encode_snapshot(&self) -> Result<Vec<u8>, PipelineError> {
        let mut bytes = Vec::new();
        snapshot::write_header(&mut bytes, snapshot::KIND_PIPELINE);
        let mut pipe = ByteWriter::new();
        pipe.put_u64(self.mapping_factor);
        pipe.put_u8(u8::from(self.state.is_some()));
        snapshot::write_section(&mut bytes, SEC_PIPE, pipe.bytes());
        if let Some(state) = &self.state {
            let MinerSlot::Live(miner) = &state.miner else {
                return Err(internal_error(
                    "cannot encode a snapshot of a spilled miner — rehydrate first",
                ));
            };
            snapshot::write_section(&mut bytes, SEC_DSYB, &encode_dsyb(&state.dsyb));
            snapshot::write_section(&mut bytes, SEC_MINER, &miner.encode_snapshot());
        }
        Ok(bytes)
    }

    /// Replaces this pipeline's state with one restored from a snapshot
    /// produced by [`StreamingPipeline::snapshot_to`]. The pipeline's own
    /// configuration is re-validated against the snapshot: the mapping factor
    /// and the state-shaping mining parameters (ε, `d_o`, `maxPatternLen`)
    /// must match, while seasonality thresholds may differ (season trackers
    /// are then replayed under the new thresholds).
    ///
    /// # Errors
    /// [`PipelineError::Persistence`] wrapping the typed snapshot errors:
    /// corruption, a future format version, or a configuration mismatch.
    pub fn restore_from(&mut self, input: &mut impl std::io::Read) -> Result<(), PipelineError> {
        let mut bytes = Vec::new();
        input
            .read_to_end(&mut bytes)
            .map_err(|e| PipelineError::Persistence(stpm_core::Error::snapshot_io(&e)))?;
        self.state = decode_pipeline_state(&bytes, self.mapping_factor, &self.config)?;
        Ok(())
    }

    /// Attaches a write-ahead log at `path` (created with its header if
    /// missing or empty): every subsequent [`append`] /
    /// [`append_symbolic`] is logged and synced to disk before returning, so
    /// [`recover`] can replay batches that arrived after the last snapshot.
    ///
    /// An existing file is validated before anything is appended after it:
    /// a file that is not a WAL is rejected, and a torn tail (the remains of
    /// a crash mid-append) is truncated to the longest durable prefix —
    /// records appended after a torn record would be forever unreachable to
    /// replay. Note that attaching does *not* replay the log into this
    /// pipeline; [`recover`] is the supported way to adopt a WAL whose
    /// records are not already reflected in the in-memory state.
    ///
    /// [`append`]: StreamingPipeline::append
    /// [`append_symbolic`]: StreamingPipeline::append_symbolic
    /// [`recover`]: StreamingPipeline::recover
    ///
    /// # Errors
    /// [`PipelineError::Persistence`] on I/O failures or when `path` holds a
    /// file whose header is not a supported WAL header.
    // lint: durable
    pub fn attach_wal(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), PipelineError> {
        let io = |e: &std::io::Error| PipelineError::Persistence(stpm_core::Error::snapshot_io(e));
        let path = path.as_ref().to_path_buf();
        let mut file = self
            .storage
            .open_append(failpoints::WAL_OPEN, &path)
            .map_err(|e| io(&e))?;
        let mut bytes = Vec::new();
        file.read_to_end(failpoints::WAL_READ, &mut bytes)
            .map_err(|e| io(&e))?;
        let len = if bytes.is_empty() {
            file.write_all(failpoints::WAL_WRITE_HEADER, &snapshot::wal_header())
                .map_err(|e| io(&e))?;
            file.sync_all(failpoints::WAL_HEADER_SYNC)
                .map_err(|e| io(&e))?;
            // The header is durable, but the *name* of a freshly created WAL
            // is not until its directory entry is — without this, a crash
            // after the first acknowledged append could lose the whole log.
            if let Some(parent) = parent_dir(&path) {
                self.storage
                    .sync_dir(failpoints::WAL_DIR_SYNC, parent)
                    .map_err(|e| io(&e))?;
            }
            snapshot::wal_header().len() as u64
        } else {
            let contents = snapshot::wal_read(&bytes).map_err(PipelineError::Persistence)?;
            if !contents.clean {
                file.set_len(failpoints::WAL_TRUNCATE_TAIL, contents.durable_len)
                    .map_err(|e| io(&e))?;
                file.sync_all(failpoints::WAL_TRUNCATE_TAIL)
                    .map_err(|e| io(&e))?;
            }
            contents.durable_len
        };
        self.wal = Some(WalHandle { file, path, len });
        Ok(())
    }

    /// Crash recovery on startup: restores the snapshot at `snapshot_path`
    /// (if given and present), replays every durable write-ahead-log record
    /// beyond it, truncates any torn WAL tail, and attaches the WAL for
    /// future appends. A missing *or empty* snapshot file and a missing WAL
    /// are not errors — the pipeline then simply starts empty (with a fresh
    /// WAL), so a first-boot daemon and a post-crash daemon share this one
    /// unconditional startup call. (An empty snapshot file is what a crash
    /// between creating and writing a non-atomic copy leaves behind; real
    /// [`snapshot_to`](StreamingPipeline::snapshot_to) files are never
    /// empty.)
    ///
    /// # Errors
    /// [`PipelineError::Persistence`] on corrupt snapshots, corrupt WAL
    /// headers, configuration mismatches or I/O failures;
    /// [`PipelineError::Transform`] / [`PipelineError::Mining`] when a
    /// replayed batch fails to absorb.
    pub fn recover(
        &mut self,
        snapshot_path: Option<&std::path::Path>,
        wal_path: &std::path::Path,
    ) -> Result<RecoveryReport, PipelineError> {
        let mut retries = 0_u64;
        let result = self.recover_inner(snapshot_path, wal_path, &mut retries);
        self.io_retries += retries;
        result
    }

    fn recover_inner(
        &mut self,
        snapshot_path: Option<&std::path::Path>,
        wal_path: &std::path::Path,
        retries: &mut u64,
    ) -> Result<RecoveryReport, PipelineError> {
        let io = |e: &std::io::Error| PipelineError::Persistence(stpm_core::Error::snapshot_io(e));
        self.state = None;
        self.wal = None;
        let retry = self.retry;
        if let Some(path) = snapshot_path {
            let read = retry.run(failpoints::RECOVER_READ_SNAPSHOT, retries, || {
                self.storage.read(failpoints::RECOVER_READ_SNAPSHOT, path)
            });
            match read {
                Ok(bytes) if bytes.is_empty() => {}
                Ok(bytes) => {
                    self.state = decode_pipeline_state(&bytes, self.mapping_factor, &self.config)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io(&e)),
            }
        }
        let restored_granules = self.num_granules();
        let wal_bytes = match retry.run(failpoints::RECOVER_READ_WAL, retries, || {
            self.storage.read(failpoints::RECOVER_READ_WAL, wal_path)
        }) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io(&e)),
        };
        let contents = snapshot::wal_read(&wal_bytes).map_err(PipelineError::Persistence)?;
        let mut replayed_records = 0u64;
        for record in &contents.records {
            let (start, batch) =
                decode_symbolic_batch(record).map_err(PipelineError::Persistence)?;
            let current = self.state.as_ref().map_or(0, |s| s.dsyb.len() as u64);
            if start + batch.len() as u64 <= current {
                // The snapshot already covers this record (it was written
                // before the snapshot that a crash then prevented from
                // truncating the log).
                continue;
            }
            if start != current {
                return Err(PipelineError::Persistence(
                    stpm_core::Error::SnapshotCorrupt {
                        reason: format!(
                            "WAL record starts at instant {start} but {current} instants are \
                         reconstructed — the log does not continue the snapshot"
                        ),
                    },
                ));
            }
            // Absorb without a per-record checkpoint mine: recovery only
            // needs the final state, and [`attach_wal`] below truncates any
            // torn tail before new appends land.
            self.absorb_symbolic(&batch)?;
            replayed_records += 1;
        }
        self.attach_wal(wal_path)?;
        Ok(RecoveryReport {
            restored_granules,
            replayed_records,
            wal_was_clean: contents.clean,
            io_retries: *retries,
        })
    }

    /// Truncates the attached WAL (if any) back to its header — declares
    /// that everything the log held is durably covered elsewhere.
    /// [`StreamingPipeline::snapshot_to`] calls this automatically once its
    /// snapshot file is durable; callers of
    /// [`StreamingPipeline::snapshot_to_writer`] call it themselves, *after*
    /// their sink has made the snapshot bytes durable. A no-op without an
    /// attached WAL.
    ///
    /// # Errors
    /// [`PipelineError::Persistence`] on truncation or sync failures.
    pub fn reset_wal(&mut self) -> Result<(), PipelineError> {
        if let Some(wal) = &mut self.wal {
            let io =
                |e: &std::io::Error| PipelineError::Persistence(stpm_core::Error::snapshot_io(e));
            let header_len = snapshot::wal_header().len() as u64;
            wal.file
                .set_len(failpoints::WAL_RESET, header_len)
                .map_err(|e| io(&e))?;
            wal.file
                .sync_all(failpoints::WAL_RESET)
                .map_err(|e| io(&e))?;
            wal.len = header_len;
        }
        Ok(())
    }
}

/// The directory whose fsync commits a namespace operation on `path` (an
/// empty parent means the path is relative to the current directory).
fn parent_dir(path: &std::path::Path) -> Option<&std::path::Path> {
    path.parent().map(|parent| {
        if parent.as_os_str().is_empty() {
            std::path::Path::new(".")
        } else {
            parent
        }
    })
}

/// An invariant of the pipeline's own bookkeeping was violated (not an I/O
/// failure and not corrupt data).
fn internal_error(reason: &str) -> PipelineError {
    PipelineError::Persistence(stpm_core::Error::Internal {
        reason: reason.into(),
    })
}

/// Encodes the symbolic database for the `DSYB` snapshot section: per series,
/// its name, alphabet and full symbol vector.
fn encode_dsyb(dsyb: &SymbolicDatabase) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(u32::try_from(dsyb.num_series()).expect("series count fits u32"));
    for series in dsyb.series() {
        write_symbolic_series(&mut w, series);
    }
    w.into_bytes()
}

fn write_symbolic_series(w: &mut ByteWriter, series: &SymbolicSeries) {
    w.put_str(series.name());
    let labels = series.alphabet().labels();
    w.put_u32(u32::try_from(labels.len()).expect("alphabet fits u32"));
    for label in labels {
        w.put_str(label);
    }
    w.put_u64(series.symbols().len() as u64);
    for &symbol in series.symbols() {
        w.put_u16(symbol.0);
    }
}

fn read_symbolic_series(r: &mut ByteReader<'_>) -> Result<SymbolicSeries, stpm_core::Error> {
    let corrupt = |reason: String| stpm_core::Error::SnapshotCorrupt { reason };
    let name = r.take_str()?;
    let label_count = r.take_u32()?;
    if label_count > 1 << 16 {
        return Err(corrupt(format!(
            "alphabet of {label_count} symbols exceeds the u16 symbol space"
        )));
    }
    let mut labels = Vec::new();
    for _ in 0..label_count {
        labels.push(r.take_str()?);
    }
    let alphabet = Alphabet::new(labels)
        .map_err(|e| corrupt(format!("series `{name}` carries an invalid alphabet: {e}")))?;
    let symbol_count = r.take_u64()?;
    let symbol_count = usize::try_from(symbol_count)
        .map_err(|_| corrupt("symbol count exceeds address space".into()))?;
    let mut symbols = Vec::with_capacity(symbol_count.min(r.remaining() / 2 + 1));
    for _ in 0..symbol_count {
        let symbol = r.take_u16()?;
        if u32::from(symbol) >= label_count {
            return Err(corrupt(format!(
                "series `{name}` references symbol {symbol} outside its {label_count}-symbol \
                 alphabet"
            )));
        }
        symbols.push(SymbolId(symbol));
    }
    Ok(SymbolicSeries::new(name, symbols, alphabet))
}

fn decode_dsyb(payload: &[u8]) -> Result<SymbolicDatabase, stpm_core::Error> {
    let mut r = ByteReader::new(payload, "symbolic-database section");
    let num_series = r.take_u32()?;
    let mut series = Vec::new();
    for _ in 0..num_series {
        series.push(read_symbolic_series(&mut r)?);
    }
    r.finish()?;
    SymbolicDatabase::new(series).map_err(|e| stpm_core::Error::SnapshotCorrupt {
        reason: format!("symbolic database failed validation: {e}"),
    })
}

/// Encodes one appended symbolic batch as a self-contained WAL record
/// payload: the instant count the stream held before the batch, then the
/// batch itself.
fn encode_symbolic_batch(start_instants: u64, batch: &SymbolicDatabase) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(start_instants);
    w.put_u32(u32::try_from(batch.num_series()).expect("series count fits u32"));
    for series in batch.series() {
        write_symbolic_series(&mut w, series);
    }
    w.into_bytes()
}

fn decode_symbolic_batch(payload: &[u8]) -> Result<(u64, SymbolicDatabase), stpm_core::Error> {
    let mut r = ByteReader::new(payload, "WAL batch record");
    let start_instants = r.take_u64()?;
    let num_series = r.take_u32()?;
    let mut series = Vec::new();
    for _ in 0..num_series {
        series.push(read_symbolic_series(&mut r)?);
    }
    r.finish()?;
    let batch = SymbolicDatabase::new(series).map_err(|e| stpm_core::Error::SnapshotCorrupt {
        reason: format!("WAL batch failed validation: {e}"),
    })?;
    Ok((start_instants, batch))
}

/// Decodes a full pipeline snapshot, re-validating the restoring pipeline's
/// configuration against it.
fn decode_pipeline_state(
    bytes: &[u8],
    mapping_factor: u64,
    config: &StpmConfig,
) -> Result<Option<StreamState>, PipelineError> {
    let per = PipelineError::Persistence;
    let mut cursor = snapshot::parse_header(bytes, snapshot::KIND_PIPELINE).map_err(per)?;
    let pipe = snapshot::read_section(&mut cursor, SEC_PIPE).map_err(per)?;
    let mut r = ByteReader::new(pipe, "pipeline section");
    let stored_m = r.take_u64().map_err(per)?;
    if stored_m != mapping_factor {
        return Err(per(stpm_core::Error::SnapshotConfigMismatch {
            parameter: "mappingFactor",
            reason: format!(
                "snapshot maps {stored_m} instants per granule, this pipeline maps \
                 {mapping_factor} — granule boundaries cannot be replayed"
            ),
        }));
    }
    let has_state = match r.take_u8().map_err(per)? {
        0 => false,
        1 => true,
        tag => {
            return Err(per(stpm_core::Error::SnapshotCorrupt {
                reason: format!("pipeline section: unknown has-state tag {tag}"),
            }))
        }
    };
    r.finish().map_err(per)?;
    let corrupt =
        |reason: String| PipelineError::Persistence(stpm_core::Error::SnapshotCorrupt { reason });
    if !has_state {
        if !cursor.is_empty() {
            return Err(corrupt(format!(
                "{} trailing bytes after an empty pipeline snapshot",
                cursor.len()
            )));
        }
        return Ok(None);
    }
    let dsyb =
        decode_dsyb(snapshot::read_section(&mut cursor, SEC_DSYB).map_err(per)?).map_err(per)?;
    let miner_bytes = snapshot::read_section(&mut cursor, SEC_MINER).map_err(per)?;
    if !cursor.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last section",
            cursor.len()
        )));
    }
    let miner = StreamingMiner::restore_with(config, &mut &miner_bytes[..]).map_err(per)?;
    if miner.registry() != dsyb.registry() {
        return Err(corrupt(
            "the miner's event registry diverges from the symbolic database's".into(),
        ));
    }
    let mut dseq = SequenceDatabase::from_sequences(
        Vec::new(),
        dsyb.registry().clone(),
        mapping_factor,
        dsyb.num_series(),
    );
    dseq.append_from_symbolic(&dsyb)
        .map_err(PipelineError::Transform)?;
    if miner.num_granules() != dseq.num_granules() {
        return Err(corrupt(format!(
            "the miner absorbed {} granules but the symbolic database maps to {}",
            miner.num_granules(),
            dseq.num_granules()
        )));
    }
    Ok(Some(StreamState {
        dsyb,
        dseq,
        miner: MinerSlot::Live(Box::new(miner)),
    }))
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::PipelineError;

    fn sample_series() -> Vec<TimeSeries> {
        vec![
            TimeSeries::new("A", vec![1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]),
            TimeSeries::new("B", vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]),
        ]
    }

    fn sample_config() -> StpmConfig {
        StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(2),
            dist_interval: (1, 10),
            min_season: 1,
            ..StpmConfig::default()
        }
    }

    #[test]
    fn streaming_pipeline_is_send() {
        // The multi-tenant service tier moves whole pipelines across worker
        // threads; losing `Send` on any field would break it at a distance.
        fn assert_send<T: Send>() {}
        assert_send::<super::StreamingPipeline>();
    }

    #[test]
    fn pipeline_mines_the_quickstart_example() {
        let outcome = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .thresholds(sample_config())
            .run(&sample_series())
            .unwrap();
        assert_eq!(outcome.dseq.num_granules(), 3);
        assert!(outcome.report.total_patterns() > 0);
        assert_eq!(outcome.report.engine(), "E-STPM");
    }

    #[test]
    fn every_builtin_engine_is_reachable_through_the_builder() {
        for engine in [
            Engine::Exact,
            Engine::Approximate { mu: None },
            Engine::Approximate { mu: Some(0.0) },
            Engine::ApsGrowth,
        ] {
            let pipeline = Pipeline::builder()
                .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
                .mapping_factor(3)
                .engine(engine)
                .thresholds(sample_config());
            let outcome = pipeline.run(&sample_series()).unwrap();
            assert_eq!(outcome.report.engine(), pipeline.engine_name());
            assert!(outcome.report.stats().num_granules <= 3);
        }
    }

    #[test]
    fn exact_and_zero_mu_approximate_agree() {
        let base = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .thresholds(sample_config());
        let exact = base.run(&sample_series()).unwrap().report;
        let approx = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .engine(Engine::Approximate { mu: Some(0.0) })
            .thresholds(sample_config())
            .run(&sample_series())
            .unwrap()
            .report;
        assert!((accuracy(&exact, &approx) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn threads_knob_changes_nothing_but_wall_clock() {
        // The builder knob is order-insensitive w.r.t. thresholds() and flows
        // through every engine; parallel output equals sequential output.
        for engine in [Engine::Exact, Engine::Approximate { mu: None }] {
            let sequential = Pipeline::builder()
                .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
                .mapping_factor(3)
                .engine(engine)
                .thresholds(sample_config())
                .run(&sample_series())
                .unwrap();
            let parallel = Pipeline::builder()
                .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
                .mapping_factor(3)
                .engine(engine)
                .threads(3) // before thresholds(): must still win
                .thresholds(sample_config())
                .run(&sample_series())
                .unwrap();
            assert_eq!(
                parallel.report.pattern_set(),
                sequential.report.pattern_set()
            );
            assert_eq!(
                parallel.report.patterns(),
                sequential.report.patterns(),
                "parallel pattern order diverged for {engine:?}"
            );
        }
    }

    #[test]
    fn run_symbolic_accepts_prebuilt_databases() {
        let dsyb = SymbolicDatabase::from_series(
            &sample_series(),
            &ThresholdSymbolizer::binary(0.5, "0", "1"),
        )
        .unwrap();
        let outcome = Pipeline::builder()
            .mapping_factor(3)
            .thresholds(sample_config())
            .run_symbolic(&dsyb)
            .unwrap();
        assert!(outcome.report.total_patterns() > 0);
    }

    #[test]
    fn run_without_symbolizer_is_rejected() {
        let err = Pipeline::builder()
            .thresholds(sample_config())
            .run(&sample_series())
            .unwrap_err();
        assert_eq!(err, PipelineError::MissingSymbolizer);
        assert!(err.to_string().contains("symbolizer"));
    }

    #[test]
    fn pipeline_surfaces_transform_errors() {
        let err = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .thresholds(StpmConfig::default())
            .run(&[TimeSeries::new("empty", vec![])])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Transform(_)));
        assert!(err.to_string().contains("transformation"));
    }

    #[test]
    fn pipeline_surfaces_mining_errors() {
        let config = StpmConfig {
            min_season: 0,
            ..StpmConfig::default()
        };
        let err = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .thresholds(config)
            .run(&[TimeSeries::new("A", vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0])])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Mining(_)));
        assert!(err.to_string().contains("mining"));
    }

    #[test]
    fn streaming_pipeline_matches_the_batch_pipeline() {
        // Feed the quickstart series in three uneven batches (the second one
        // leaves a partial granule pending); the final checkpoint must agree
        // with the one-shot batch pipeline on the same data.
        let series = sample_series();
        let batch_outcome = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .thresholds(sample_config())
            .run(&series)
            .unwrap();

        let mut stream = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .thresholds(sample_config())
            .into_streaming();
        let chunk = |from: usize, to: usize| -> Vec<TimeSeries> {
            series
                .iter()
                .map(|s| TimeSeries::new(s.name(), s.values()[from..to].to_vec()))
                .collect()
        };
        stream.append(&chunk(0, 4)).unwrap();
        assert_eq!(stream.num_granules(), 1);
        assert_eq!(stream.pending_instants(), 1);
        stream.append(&chunk(4, 7)).unwrap();
        let report = stream.append(&chunk(7, 9)).unwrap();
        assert_eq!(stream.num_granules(), 3);
        assert_eq!(stream.pending_instants(), 0);
        assert_eq!(report.pattern_set(), batch_outcome.report.pattern_set());
        assert_eq!(
            stream.dseq().unwrap().sequences(),
            batch_outcome.dseq.sequences()
        );
        assert_eq!(stream.dsyb().unwrap().len(), 9);
        // A checkpoint without an append reproduces the same output.
        let again = stream.checkpoint().unwrap();
        assert_eq!(again.pattern_set(), report.pattern_set());
    }

    #[test]
    fn appends_that_complete_no_granule_succeed_without_duplicating_samples() {
        // Two samples per append at mapping factor 3: the first append
        // completes no granule and must succeed (empty report) — returning
        // an error there would invite callers to retry an already-absorbed
        // batch and corrupt the series. Three such appends = 6 samples =
        // 2 granules, identical to the one-shot run.
        let series = sample_series();
        let chunk = |from: usize, to: usize| -> Vec<TimeSeries> {
            series
                .iter()
                .map(|s| TimeSeries::new(s.name(), s.values()[from..to].to_vec()))
                .collect()
        };
        let mut stream = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .thresholds(sample_config())
            .into_streaming();
        let pending = stream.append(&chunk(0, 2)).unwrap();
        assert_eq!(pending.total_patterns(), 0);
        assert_eq!(stream.num_granules(), 0);
        assert_eq!(stream.pending_instants(), 2);
        stream.append(&chunk(2, 4)).unwrap();
        let report = stream.append(&chunk(4, 6)).unwrap();
        assert_eq!(stream.num_granules(), 2);
        let batch = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .thresholds(sample_config())
            .run(&chunk(0, 6))
            .unwrap();
        assert_eq!(report.pattern_set(), batch.report.pattern_set());
    }

    #[test]
    fn streaming_pipeline_rejects_misuse() {
        let mut no_symbolizer = Pipeline::builder()
            .mapping_factor(3)
            .thresholds(sample_config())
            .into_streaming();
        assert_eq!(
            no_symbolizer.append(&sample_series()).unwrap_err(),
            PipelineError::MissingSymbolizer
        );
        let empty = no_symbolizer.checkpoint().unwrap();
        assert_eq!(empty.total_patterns(), 0);
        assert_eq!(empty.stats().num_granules, 0);
        assert_eq!(no_symbolizer.num_granules(), 0);

        // A batch whose series set diverges from the first one is rejected.
        let mut stream = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
            .mapping_factor(3)
            .thresholds(sample_config())
            .into_streaming();
        stream.append(&sample_series()).unwrap();
        let err = stream
            .append(&[TimeSeries::new("Z", vec![1.0, 0.0])])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Transform(_)));
    }

    #[test]
    fn engine_variants_instantiate_the_three_contenders() {
        let names: Vec<&str> = [
            Engine::Approximate { mu: None },
            Engine::Exact,
            Engine::ApsGrowth,
        ]
        .iter()
        .map(|e| e.instantiate().name())
        .collect();
        assert_eq!(names, vec!["A-STPM", "E-STPM", "APS-growth"]);
    }
}
