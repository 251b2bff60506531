//! End-to-end benchmark of FreqSTPfTS.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs generated from `--seed`, measures for about
//! `--seconds`, checks the program's outputs and prints, as the last line of
//! standard output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the bounded end-to-end
//! metrics ([`GATED`]); with `--trace 1` they are the per-layer metrics,
//! taken from spans the benchmark records around its calls into each layer,
//! and the spans are written to `.bench_out/trace-<workload>-<seed>.json`.
//! The line before the result holds the run's facts: machine, identity
//! digests, sample counts, every round's values, the workload's metrics
//! under their own names, and every end-to-end value of this run, timings
//! included (the traced run measures them too, so tracing overhead is the
//! difference between a traced and an untraced run). A failed output check
//! exits non-zero and prints no result.

mod batch;
mod machine;
mod service;
mod stats;
mod stream;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics every workload measures; the workload decides which
/// request is its main and which its side request (see `README.md`). All of
/// them are printed in the facts line.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mib",
    "main_p50_ms",
    "main_p90_ms",
    "main_per_s",
    "side_p50_ms",
];

/// The end-to-end metrics of the result line, the ones `BENCHMARK.json`
/// bounds. The timings are left out: on the reference host their
/// run-to-run spread on the same seeds exceeds the largest bound a metric
/// may have (see `README.md`), so a bound on them would reject changes at
/// random.
const GATED: [&str; 2] = ["setup_s", "peak_rss_mib"];

/// Per-layer metrics of the traced run, with units. A workload that does
/// not call a layer reports its metrics as 0 and lists them under
/// `not_exercised`.
const PER_LAYER: [(&str, &str); 34] = [
    ("timeseries.symbolize_ms", "ms"),
    ("timeseries.dseq_ms", "ms"),
    ("hlh.hlh1_ms", "ms"),
    ("miner.mine_ms", "ms"),
    ("miner.single_events_ms", "ms"),
    ("miner.patterns_ms", "ms"),
    ("miner.k2.candidates", "count"),
    ("miner.k2.frequent", "count"),
    ("miner.k3.candidates", "count"),
    ("miner.k3.frequent", "count"),
    ("miner.k3.useful_ratio", "ratio"),
    ("miner.classifier_calls_saved", "count"),
    ("miner.adjacency_pruned", "count"),
    ("miner.footprint_mib", "MiB"),
    ("approx.mine_ms", "ms"),
    ("approx.mi_ms", "ms"),
    ("approx.nmi_ms", "ms"),
    ("approx.pruned_series_pct", "%"),
    ("approx.accuracy_pct", "%"),
    ("stream.emit_ms", "ms"),
    ("stream.resident_mib", "MiB"),
    ("persist.snapshot_ms", "ms"),
    ("persist.snapshot_bytes", "bytes"),
    ("persist.wal_bytes_per_append", "bytes"),
    ("persist.recover_ms", "ms"),
    ("persist.replayed_records", "count"),
    ("persist.io_retries", "count"),
    ("service.evictions_per_append", "ratio"),
    ("service.rehydrations_per_append", "ratio"),
    ("service.overloaded", "count"),
    ("service.resident_ratio", "ratio"),
    ("service.stats_ms", "ms"),
    ("service.cpu_user_s", "s"),
    ("service.cpu_sys_s", "s"),
];

const WORKLOADS: [&str; 3] = ["batch-wide", "stream-durable", "service-fleet"];

/// Every workload measures a fixed number of rounds, the same on every
/// commit, and reports each metric from its best round. Other tenants of
/// the host slow it down for seconds to minutes at a time; a slow period
/// that covers some rounds leaves the result alone, while a change in the
/// program moves every round. Rounds stop early only on a host too slow to
/// finish in [`TIME_GUARD`] times `--seconds`; the facts line lists the
/// rounds made.
pub const TIME_GUARD: f64 = 1.25;

/// Rounds of one run, and whether another one still fits its time.
#[derive(Debug)]
pub struct Rounds {
    started: Instant,
    limit: f64,
    longest: f64,
    last: Instant,
}

impl Rounds {
    pub fn start(seconds: f64) -> Self {
        let now = Instant::now();
        Self {
            started: now,
            limit: TIME_GUARD * seconds,
            longest: 0.0,
            last: now,
        }
    }

    /// Called before each round but the first: records the round just
    /// ended and says whether one more as long as the longest so far ends
    /// within the run's time guard.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        self.longest = self
            .longest
            .max(now.duration_since(self.last).as_secs_f64());
        self.last = now;
        now.duration_since(self.started).as_secs_f64() + self.longest <= self.limit
    }
}

#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    e2e: Vec<Metric>,
    named: Vec<Metric>,
    layers: Vec<Metric>,
    /// Extra facts as `(key, JSON value)`.
    info: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            ..Self::default()
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    /// An end-to-end metric measured once per round: reports the best
    /// round and lists every round under `rounds` in the facts line.
    pub fn e2e_best(
        &mut self,
        name: &'static str,
        unit: &'static str,
        higher_is_better: bool,
        rounds: &[f64],
    ) {
        let best = if higher_is_better {
            rounds.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        } else {
            rounds.iter().copied().fold(f64::INFINITY, f64::min)
        };
        self.e2e(name, best, unit);
        let listed: Vec<String> = rounds.iter().map(|v| json_num(*v)).collect();
        self.info
            .push((format!("rounds.{name}"), format!("[{}]", listed.join(","))));
    }

    /// The 90th percentile of each round's samples, reported for the best
    /// round. Every round holds the same number of samples on every
    /// commit, so the statistic is the same whatever the host speed.
    pub fn e2e_p90(&mut self, name: &'static str, rounds: &[&[f64]]) {
        let values: Vec<f64> = rounds
            .iter()
            .map(|r| stats::percentile(&stats::sorted(r), 90.0))
            .collect();
        self.e2e_best(name, "ms", false, &values);
        let sizes: Vec<String> = rounds.iter().map(|r| r.len().to_string()).collect();
        self.info_str(
            &format!("{name}.samples"),
            &format!("p90 of {} samples per round", sizes.join("/")),
        );
    }

    /// One of the workload's metrics under the workload-specific name.
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push(Metric { name, value, unit });
    }

    /// Reports the end-to-end metric `of`, times `scale`, again under the
    /// workload-specific name `name`.
    pub fn alias(&mut self, name: &'static str, of: &str, scale: f64, unit: &'static str) {
        let value = self
            .e2e
            .iter()
            .find(|m| m.name == of)
            .expect("aliased metrics are recorded first")
            .value;
        self.named(name, value * scale, unit);
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    pub fn info_num(&mut self, key: &str, value: f64) {
        self.info.push((key.to_string(), json_num(value)));
    }

    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info.push((key.to_string(), format!("\"{value}\"")));
    }
}

/// Times a workload's set-up. A run repeats its set-up at the start of
/// every round, so the reported median spans the run rather than one
/// moment of the host.
#[derive(Debug, Default)]
pub struct SetupTimer {
    times: Vec<f64>,
}

impl SetupTimer {
    /// Runs `make` once, timed.
    pub fn time<T>(&mut self, make: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(make());
        self.times.push(start.elapsed().as_secs_f64());
        out
    }

    /// Median seconds of the set-ups timed so far.
    pub fn median(&self) -> f64 {
        stats::median(&self.times)
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let mut tracer = trace::Tracer::new(args.trace);
    let data_dir =
        machine::DataDir::create(&args.workload).map_err(|e| format!("data dir: {e}"))?;
    let facts = machine::facts_json(data_dir.path());
    let mut out = match args.workload.as_str() {
        "batch-wide" => batch::run(args.seed, args.seconds, &mut tracer),
        "stream-durable" => stream::run(args.seed, args.seconds, &mut tracer, data_dir.path()),
        "service-fleet" => service::run(args.seed, args.seconds, &mut tracer, data_dir.path()),
        other => unreachable!("workload {other} was validated"),
    };
    drop(data_dir);
    out.e2e("peak_rss_mib", machine::peak_rss_mib(), "MiB");
    let names: Vec<&str> = out.e2e.iter().map(|m| m.name).collect();
    for name in END_TO_END {
        assert!(names.contains(&name), "workload did not measure {name}");
    }

    let mut info = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"machine\":{facts}",
        args.workload, args.seed, args.trace
    );
    for (key, value) in &out.info {
        let _ = write!(info, ",\"{key}\":{value}");
    }
    let _ = write!(
        info,
        ",\"e2e\":{},\"named\":{}",
        metrics_json(&out.e2e),
        metrics_json(&out.named)
    );
    let metrics = if args.trace {
        let mut all = Vec::with_capacity(PER_LAYER.len());
        let mut missing = Vec::new();
        for (name, unit) in PER_LAYER {
            match out.layers.iter().find(|m| m.name == name) {
                Some(m) => all.push(m.clone()),
                None => {
                    missing.push(format!("\"{name}\""));
                    all.push(Metric {
                        name,
                        value: 0.0,
                        unit,
                    });
                }
            }
        }
        let path = std::path::Path::new(machine::OUT_DIR)
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = write!(
            info,
            ",\"not_exercised\":[{}],\"spans\":{},\"trace_file\":\"{}\"",
            missing.join(","),
            tracer.summary_json(),
            path.display()
        );
        all
    } else {
        GATED
            .iter()
            .map(|name| {
                out.e2e
                    .iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .expect("checked above")
            })
            .collect()
    };
    info.push('}');
    println!("{info}");
    Ok(format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // A failed output check panics; the panic hook has already reported it,
    // and no result line may follow.
    match std::panic::catch_unwind(|| run(&args)) {
        Ok(Ok(result)) => println!("{result}"),
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        Err(_) => std::process::exit(1),
    }
}
