//! `service-fleet`: thousands of small tenants driven in-process through
//! `Service::submit` over the real filesystem, with a memory budget far
//! below the fleet's working set so cold tenants are evicted and rehydrated.
//!
//! Each round runs the whole arrival schedule as a closed loop on a fresh
//! service: at most [`WINDOW`] requests in flight and one per tenant, the
//! next sent as soon as its tenant and a window slot are free. Latency
//! counts from the send. A closed loop slows down with the service instead
//! of queueing up, so bursts of interference from other tenants of the host
//! move its numbers in proportion; an open loop at a fixed rate multiplied
//! its latency percentiles in those bursts.

use crate::machine;
use crate::trace::Tracer;
use crate::{stats, Outcome, Rounds, SetupTimer};
use freqstpfts::core::{MemoryBudget, StpmConfig, Threshold};
use freqstpfts::datagen::{service_load, SeededRng, ServiceLoad, TenantLoadSpec};
use freqstpfts::Pipeline;
use std::collections::HashSet;
use std::path::Path;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};
use stpm_service::{Request, Response, Service, ServiceConfig, ServiceError, ServiceStats};

const TENANTS: usize = 5_000;
/// Rounds a run makes, each the whole schedule on a fresh service.
const ROUNDS: usize = 2;
const WORKERS: usize = 2;
/// Resident state allowed per tenant; the fleet's working set is far larger.
const BUDGET_PER_TENANT: u64 = 2 * 1024;
/// One `Patterns` read follows every this many appends.
const READ_EVERY: usize = 10;
/// Requests in flight at most (and at most one per tenant).
const WINDOW: usize = 64;
/// Tenants whose pattern sets are checked against a direct pipeline.
const SAMPLED: usize = 8;
/// How often the loops look for finished requests while none is due.
const POLL: Duration = Duration::from_micros(100);

#[derive(Debug, Clone, Copy)]
enum Op {
    Append { tenant: usize, batch: usize },
    Read { tenant: usize },
}

impl Op {
    fn tenant(self) -> usize {
        match self {
            Op::Append { tenant, .. } | Op::Read { tenant } => tenant,
        }
    }
}

fn fleet(seed: u64) -> ServiceLoad {
    let mut spec = TenantLoadSpec::quick(TENANTS, seed);
    spec.max_granules = 48;
    spec.min_granules = 8;
    spec.num_series = 2;
    spec.batch_granules = 8;
    service_load(&spec)
}

/// The arrival schedule with one read per [`READ_EVERY`] appends, each on a
/// tenant drawn uniformly from those that have appended earlier in the
/// schedule. Most of them have been evicted by then, so most reads
/// rehydrate.
fn schedule(load: &ServiceLoad, seed: u64) -> Vec<Op> {
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x7ead_5eed);
    let mut ops = Vec::with_capacity(load.arrivals.len() * (READ_EVERY + 1) / READ_EVERY);
    let mut seen = vec![false; load.tenants.len()];
    let mut appended = Vec::new();
    for (k, &(tenant, batch)) in load.arrivals.iter().enumerate() {
        ops.push(Op::Append { tenant, batch });
        if !std::mem::replace(&mut seen[tenant], true) {
            appended.push(tenant);
        }
        if (k + 1) % READ_EVERY == 0 {
            let pick = rng.next_below(appended.len() as u64) as usize;
            ops.push(Op::Read {
                tenant: appended[pick],
            });
        }
    }
    ops
}

fn thresholds() -> StpmConfig {
    StpmConfig {
        max_period: Threshold::Absolute(3),
        min_density: Threshold::Absolute(2),
        dist_interval: (2, 40),
        min_season: 1,
        max_pattern_len: 2,
        ..StpmConfig::default()
    }
}

fn start(dir: &Path, load: &ServiceLoad) -> Service {
    let mut config = ServiceConfig::new(dir);
    config.mapping_factor = load.tenants[0].dataset.mapping_factor;
    config.thresholds = thresholds();
    config.workers = WORKERS;
    config.memory_budget = Some(MemoryBudget::bytes(TENANTS as u64 * BUDGET_PER_TENANT));
    Service::start(config).expect("the service data directory is created")
}

fn submit(service: &Service, load: &ServiceLoad, op: Op) -> Receiver<Response> {
    let tenant = load.tenants[op.tenant()].name.clone();
    service.submit(match op {
        Op::Append { tenant: t, batch } => Request::Append {
            tenant,
            deadline_ms: 0,
            batch: load.tenants[t].batches[batch].clone(),
        },
        Op::Read { .. } => Request::Patterns { tenant },
    })
}

struct Flight {
    op: Op,
    request: u64,
    sent: Instant,
    rx: Receiver<Response>,
}

/// What one round observed.
#[derive(Default)]
struct Observed {
    append_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// Appends acknowledged per tenant, in order.
    acked: Vec<usize>,
    /// Tenants with a failed or refused request.
    failed_tenants: HashSet<usize>,
    attempted: u64,
    failed: u64,
    overloaded: u64,
    wall_s: f64,
    cpu_user_s: f64,
    cpu_sys_s: f64,
}

impl Observed {
    fn new(tenants: usize) -> Self {
        Self {
            acked: vec![0; tenants],
            ..Self::default()
        }
    }

    /// Takes every finished request off `pending`; returns how many.
    fn collect(&mut self, pending: &mut Vec<Flight>, tracer: &mut Tracer) -> usize {
        let before = pending.len();
        let now = Instant::now();
        pending.retain(|f| {
            let response = match f.rx.try_recv() {
                Ok(r) => r,
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => Response::Error(ServiceError::ShuttingDown),
            };
            let ms = now.duration_since(f.sent).as_secs_f64() * 1e3;
            match (f.op, response) {
                (Op::Append { tenant, .. }, Response::Appended { .. }) => {
                    self.append_ms.push(ms);
                    self.acked[tenant] += 1;
                    tracer.record("service.append", f.request, f.sent, now);
                }
                (Op::Read { .. }, Response::Patterns { .. }) => {
                    self.read_ms.push(ms);
                    tracer.record("service.read", f.request, f.sent, now);
                }
                (op, response) => {
                    if matches!(response, Response::Error(ServiceError::Overloaded { .. })) {
                        self.overloaded += 1;
                    }
                    self.failed += 1;
                    self.failed_tenants.insert(op.tenant());
                }
            }
            false
        });
        before - pending.len()
    }
}

/// Sends `ops` in order, closed-loop; stops sending after `cap` seconds.
fn drive(
    service: &Service,
    load: &ServiceLoad,
    ops: &[Op],
    offset: u64,
    cap: f64,
    tracer: &mut Tracer,
) -> Observed {
    let mut seen = Observed::new(load.tenants.len());
    let (cpu_user, cpu_sys) = machine::cpu_seconds();
    let started = Instant::now();
    let mut pending: Vec<Flight> = Vec::with_capacity(WINDOW);
    let mut busy: HashSet<usize> = HashSet::new();
    let mut next = 0;
    loop {
        let open = started.elapsed().as_secs_f64() < cap;
        while open
            && next < ops.len()
            && pending.len() < WINDOW
            && !busy.contains(&ops[next].tenant())
        {
            let op = ops[next];
            busy.insert(op.tenant());
            pending.push(Flight {
                op,
                request: offset + next as u64,
                sent: Instant::now(),
                rx: submit(service, load, op),
            });
            next += 1;
        }
        if pending.is_empty() {
            break;
        }
        if seen.collect(&mut pending, tracer) == 0 {
            std::thread::sleep(POLL);
        } else {
            busy = pending.iter().map(|f| f.op.tenant()).collect();
        }
    }
    seen.wall_s = started.elapsed().as_secs_f64();
    seen.attempted = next as u64;
    let (user, sys) = machine::cpu_seconds();
    (seen.cpu_user_s, seen.cpu_sys_s) = (user - cpu_user, sys - cpu_sys);
    seen
}

/// Checks that sampled tenants hold exactly what a direct streaming
/// pipeline fed the same acknowledged batches mines, and that the service
/// ended under its budget.
fn check(service: &Service, load: &ServiceLoad, seen: &Observed, seed: u64) {
    let stats = service.stats();
    assert!(
        stats.resident_bytes <= stats.budget_bytes,
        "the run ended over budget: {} resident vs {} budget",
        stats.resident_bytes,
        stats.budget_bytes
    );
    let eligible: Vec<usize> = (0..load.tenants.len())
        .filter(|t| seen.acked[*t] > 0 && !seen.failed_tenants.contains(t))
        .collect();
    assert!(!eligible.is_empty(), "no append was acknowledged");
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x5a3b_1e5e);
    let mut sample = vec![eligible[0]];
    sample.extend((1..SAMPLED).map(|_| eligible[rng.next_below(eligible.len() as u64) as usize]));
    for t in sample {
        let tenant = &load.tenants[t];
        let served = match service.call(Request::Patterns {
            tenant: tenant.name.clone(),
        }) {
            Response::Patterns { patterns } => patterns,
            other => panic!("patterns of {} failed: {other:?}", tenant.name),
        };
        let mut direct = Pipeline::builder()
            .mapping_factor(tenant.dataset.mapping_factor)
            .thresholds(thresholds())
            .into_streaming();
        for batch in &tenant.batches[..seen.acked[t]] {
            direct
                .append_symbolic(batch)
                .expect("the direct pipeline absorbs");
        }
        let expected: Vec<String> = direct
            .checkpoint()
            .expect("the direct pipeline mines")
            .pattern_set()
            .into_iter()
            .collect();
        assert_eq!(
            served, expected,
            "tenant {} diverged from a direct pipeline",
            tenant.name
        );
    }
}

/// One round: the whole schedule on a fresh service, then the output
/// checks and the `stats()` timing.
fn round(
    load: &ServiceLoad,
    ops: &[Op],
    seed: u64,
    dir: &Path,
    cap: f64,
    tracer: &mut Tracer,
    request: &mut u64,
) -> (Observed, ServiceStats, Vec<f64>) {
    let service = start(dir, load);
    let seen = drive(&service, load, ops, *request, cap, tracer);
    *request += seen.attempted;
    check(&service, load, &seen, seed);
    let mut stats_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        tracer.span("service.stats", *request, |_| {
            std::hint::black_box(service.stats())
        });
        stats_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let stats = service.stats();
    service.kill();
    let _ = std::fs::remove_dir_all(dir);
    (seen, stats, stats_ms)
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, dir: &Path) -> Outcome {
    let make = || {
        let load = fleet(seed);
        let ops = schedule(&load, seed);
        (load, ops)
    };
    let mut setup = SetupTimer::default();
    let (load, ops) = setup.time(make);
    let mut request = 0;
    // The cap only guards against a host too slow to finish a round.
    let cap = 2.0 * seconds;
    let mut timing = Rounds::start(seconds);
    let mut rounds: Vec<(Observed, ServiceStats, Vec<f64>)> = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        if r > 0 && !timing.another() {
            break;
        }
        drop(setup.time(make));
        machine::settle_disk(dir);
        let dir = dir.join(format!("round-{r}"));
        rounds.push(round(&load, &ops, seed, &dir, cap, tracer, &mut request));
    }

    let attempted = rounds.iter().map(|(l, _, _)| l.attempted).sum();
    let failed = rounds.iter().map(|(l, _, _)| l.failed).sum();
    let mut out = Outcome::new(attempted, failed);
    let per_round =
        |f: &dyn Fn(&Observed) -> f64| rounds.iter().map(|(l, _, _)| f(l)).collect::<Vec<f64>>();
    out.e2e("setup_s", setup.median(), "s");
    out.e2e_best(
        "main_p50_ms",
        "ms",
        false,
        &per_round(&|l| stats::median(&l.append_ms)),
    );
    let appends: Vec<&[f64]> = rounds
        .iter()
        .map(|(l, _, _)| l.append_ms.as_slice())
        .collect();
    out.e2e_p90("main_p90_ms", &appends);
    out.e2e_best(
        "main_per_s",
        "1/s",
        true,
        &per_round(&|l| l.append_ms.len() as f64 / l.wall_s),
    );
    out.e2e_best(
        "side_p50_ms",
        "ms",
        false,
        &per_round(&|l| stats::median(&l.read_ms)),
    );
    out.alias("svc_appends_per_s", "main_per_s", 1.0, "1/s");
    out.alias("svc_append_p50_ms", "main_p50_ms", 1.0, "ms");
    out.alias("svc_append_p90_ms", "main_p90_ms", 1.0, "ms");
    out.alias("svc_read_p50_ms", "side_p50_ms", 1.0, "ms");
    out.info_num("requests_per_round", rounds[0].0.attempted as f64);
    // The read latency's spread: reads of evicted tenants rehydrate them
    // first, so the distribution has a resident and a cold mode.
    let reads = stats::sorted(&rounds[0].0.read_ms);
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", stats::percentile(&reads, f64::from(d) * 10.0)))
        .collect();
    out.info_str("read_ms_deciles", &deciles.join(" "));

    if tracer.enabled() {
        let (seen, stats, stats_ms) = rounds.last().expect("ROUNDS > 0");
        let acked = stats.acked_appends.max(1) as f64;
        out.layer(
            "service.evictions_per_append",
            stats.evictions as f64 / acked,
            "ratio",
        );
        out.layer(
            "service.rehydrations_per_append",
            stats.rehydrations as f64 / acked,
            "ratio",
        );
        let overloaded: u64 = rounds.iter().map(|(l, _, _)| l.overloaded).sum();
        out.layer("service.overloaded", overloaded as f64, "count");
        out.layer(
            "service.resident_ratio",
            stats.resident_bytes as f64 / stats.budget_bytes.max(1) as f64,
            "ratio",
        );
        out.layer("service.stats_ms", stats::median(stats_ms), "ms");
        out.layer("service.cpu_user_s", seen.cpu_user_s, "s");
        out.layer("service.cpu_sys_s", seen.cpu_sys_s, "s");
        out.layer("persist.io_retries", stats.io_retries as f64, "count");
    }
    out
}
