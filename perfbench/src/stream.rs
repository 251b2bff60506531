//! `stream-durable`: one sensor feed as a closed loop through the facade
//! `StreamingPipeline` with a write-ahead log on the real filesystem, then a
//! simulated crash and recoveries from the files it left. Every round
//! streams the whole feed afresh.

use crate::batch::config;
use crate::trace::Tracer;
use crate::{machine, stats, Outcome, Rounds, SetupTimer};
use freqstpfts::core::engine::phases;
use freqstpfts::core::{canonical_result_set, EngineReport};
use freqstpfts::datagen::{generate, DatasetProfile, DatasetSpec};
use freqstpfts::timeseries::SymbolicDatabase;
use freqstpfts::{Pipeline, StreamingPipeline};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

const SERIES: usize = 12;
const GRANULES: u64 = 1_440;
/// Granules of the initial window; the rest arrive one granule per append.
const INITIAL: u64 = 240;
/// Appends between snapshots. The last snapshot is taken this many appends
/// before the crash, so recovery replays as many WAL records.
const SNAPSHOT_EVERY: usize = 120;
/// Rounds a run makes: whole feeds, each with its crash and recoveries.
const ROUNDS: usize = 3;
/// Recoveries from the same files each round makes.
const RECOVERIES: usize = 3;

fn pipeline(m: u64) -> StreamingPipeline {
    Pipeline::builder()
        .mapping_factor(m)
        .thresholds(config())
        .threads(1)
        .into_streaming()
}

fn canonical(report: &EngineReport) -> BTreeSet<String> {
    canonical_result_set(report.events(), report.patterns())
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0, |m| m.len()) as f64
}

/// What one round measured: a whole feed, its crash and its recoveries.
struct Round {
    append_ms: Vec<f64>,
    emit_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    append_wall_s: f64,
    resident: u64,
    snapshot_bytes: f64,
    wal_bytes_per_append: f64,
    replayed: u64,
    io_retries: u64,
}

/// Streams the whole feed with a WAL and periodic snapshots, crashes, and
/// recovers from the files [`RECOVERIES`] times. Checks the pre-crash state against `expected` and every
/// recovered state against the pre-crash state.
fn round(
    batches: &[SymbolicDatabase],
    m: u64,
    dir: &Path,
    expected: &BTreeSet<String>,
    tracer: &mut Tracer,
    request: &mut u64,
) -> Round {
    let (wal, snap) = (dir.join("feed.wal"), dir.join("feed.snap"));
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&snap);
    let appends = batches.len() - 1;
    let (mut append_ms, mut emit_ms, mut snapshot_ms) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut p = pipeline(m);
    p.attach_wal(&wal).expect("the WAL opens");
    p.append_symbolic(&batches[0])
        .expect("the initial window absorbs");
    let mut wal_after_snapshot = 0.0;
    for (i, batch) in batches[1..].iter().enumerate() {
        let t = Instant::now();
        let report = tracer.span("stream.append", *request, |_| p.append_symbolic(batch));
        append_ms.push(ms(t.elapsed()));
        emit_ms.push(ms(report
            .expect("the append is acknowledged")
            .phase_time(phases::EMIT)));
        if (i + 1) % SNAPSHOT_EVERY == 0 && i + 1 < appends {
            let t = Instant::now();
            tracer
                .span("persist.snapshot", *request, |_| p.snapshot_to(&snap))
                .expect("the snapshot is written");
            snapshot_ms.push(ms(t.elapsed()));
            wal_after_snapshot = file_len(&wal);
        }
        *request += 1;
    }
    let append_wall_s = started.elapsed().as_secs_f64();
    let resident = p.resident_bytes();
    let crashed = canonical(&p.checkpoint().expect("the feed has granules"));
    assert_eq!(
        &crashed, expected,
        "the streamed checkpoint diverged from the batch run on the same data"
    );
    let wal_bytes_per_append = (file_len(&wal) - wal_after_snapshot) / SNAPSHOT_EVERY as f64;
    drop(p);

    // Crash → recovered state, repeated on the same files.
    let mut recover_ms = Vec::new();
    let (mut replayed, mut io_retries) = (0, 0);
    while recover_ms.len() < RECOVERIES {
        let t = Instant::now();
        let (report, state) = tracer.span("crash.recover", *request, |t| {
            let mut q = pipeline(m);
            let report = t.span("persist.recover", *request, |_| {
                q.recover(Some(&snap), &wal)
            });
            let state = t.span("stream.checkpoint", *request, |_| q.checkpoint());
            (
                report.expect("recovery succeeds"),
                state.expect("the recovered feed mines"),
            )
        });
        recover_ms.push(ms(t.elapsed()));
        if recover_ms.len() == 1 {
            assert_eq!(canonical(&state), crashed, "recovery lost or changed state");
        }
        assert_eq!(
            report.replayed_records, SNAPSHOT_EVERY as u64,
            "recovery replays the appends after the last snapshot"
        );
        replayed = report.replayed_records;
        io_retries = report.io_retries;
        *request += 1;
    }
    Round {
        append_ms,
        emit_ms,
        snapshot_ms,
        recover_ms,
        append_wall_s,
        resident,
        snapshot_bytes: file_len(&snap),
        wal_bytes_per_append,
        replayed,
        io_retries,
    }
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, dir: &Path) -> Outcome {
    let spec = DatasetSpec::real(DatasetProfile::RenewableEnergy)
        .scaled_to(SERIES, GRANULES)
        .with_seed(seed);
    let make = || {
        let data = generate(&spec);
        let batches = data.arrival_batches(INITIAL, 1);
        (data, batches)
    };
    let mut setup = SetupTimer::default();
    let (data, batches) = setup.time(make);
    let m = data.mapping_factor;
    assert!(
        batches.len() > SNAPSHOT_EVERY + 1,
        "the feed outlasts one snapshot interval"
    );
    // Exactness reference: a batch run on the full data.
    let expected = canonical(
        &Pipeline::builder()
            .mapping_factor(m)
            .thresholds(config())
            .threads(1)
            .run_symbolic(&data.dsyb)
            .expect("the batch pipeline mines")
            .report,
    );

    let mut request = 0_u64;
    let mut timing = Rounds::start(seconds);
    let mut rounds = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        if r > 0 && !timing.another() {
            break;
        }
        drop(setup.time(make));
        machine::settle_disk(dir);
        rounds.push(round(&batches, m, dir, &expected, tracer, &mut request));
    }

    let attempted: usize = rounds
        .iter()
        .map(|r| 1 + r.append_ms.len() + r.snapshot_ms.len() + r.recover_ms.len())
        .sum();
    let mut out = Outcome::new(attempted as u64, 0);
    let per_round = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    out.e2e("setup_s", setup.median(), "s");
    out.e2e_best(
        "main_p50_ms",
        "ms",
        false,
        &per_round(|r| stats::median(&r.append_ms)),
    );
    let appends: Vec<&[f64]> = rounds.iter().map(|r| r.append_ms.as_slice()).collect();
    out.e2e_p90("main_p90_ms", &appends);
    out.e2e_best(
        "main_per_s",
        "1/s",
        true,
        &per_round(|r| r.append_ms.len() as f64 / r.append_wall_s),
    );
    out.e2e_best(
        "side_p50_ms",
        "ms",
        false,
        &per_round(|r| stats::median(&r.recover_ms)),
    );
    out.alias("append_p50_ms", "main_p50_ms", 1.0, "ms");
    out.alias("append_p90_ms", "main_p90_ms", 1.0, "ms");
    out.alias("recover_s", "side_p50_ms", 1e-3, "s");
    out.info_num("patterns", expected.len() as f64);

    if tracer.enabled() {
        let last = rounds.last().expect("ROUNDS > 0");
        let pooled = |f: fn(&Round) -> &Vec<f64>| {
            stats::median(
                &rounds
                    .iter()
                    .flat_map(|r| f(r).iter().copied())
                    .collect::<Vec<f64>>(),
            )
        };
        out.layer("stream.emit_ms", pooled(|r| &r.emit_ms), "ms");
        out.layer(
            "stream.resident_mib",
            last.resident as f64 / (1024.0 * 1024.0),
            "MiB",
        );
        out.layer("persist.snapshot_ms", pooled(|r| &r.snapshot_ms), "ms");
        out.layer("persist.snapshot_bytes", last.snapshot_bytes, "bytes");
        out.layer(
            "persist.wal_bytes_per_append",
            last.wal_bytes_per_append,
            "bytes",
        );
        out.layer(
            "persist.recover_ms",
            stats::median(&tracer.durations_ms("persist.recover")),
            "ms",
        );
        out.layer("persist.replayed_records", last.replayed as f64, "count");
        out.layer("persist.io_retries", last.io_retries as f64, "count");
    }
    out
}
