//! `stpm-serve`: the multi-tenant streaming mining daemon.
//!
//! ```text
//! stpm-serve --data-dir DIR [--listen ADDR] [--workers N]
//!            [--tenant-queue-depth N] [--global-queue-depth N]
//!            [--memory-budget-bytes N] [--default-deadline-ms N]
//!            [--mapping-factor N]
//! ```
//!
//! The daemon serves the length-prefixed TCP protocol of
//! [`stpm_service::protocol`] until a client sends a shutdown request,
//! then drains gracefully: queued work finishes and every tenant's state
//! is flushed to a durable snapshot before the process exits.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;
use stpm_core::MemoryBudget;
use stpm_service::{serve, Service, ServiceConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("stpm-serve: {message}");
            eprintln!(
                "usage: stpm-serve --data-dir DIR [--listen ADDR] [--workers N] \
                 [--tenant-queue-depth N] [--global-queue-depth N] \
                 [--memory-budget-bytes N] [--default-deadline-ms N] [--mapping-factor N]"
            );
            return ExitCode::FAILURE;
        }
    };
    let (config, listen) = parsed;
    let service = match Service::start(config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("stpm-serve: starting the service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = match serve(service, &listen) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("stpm-serve: binding {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("stpm-serve: listening on {}", handle.addr());
    // Park until a client-initiated shutdown stops the accept loop, then
    // drain: the handle's accept thread exits on the in-band shutdown flag.
    let report = handle.run_to_completion();
    println!(
        "stpm-serve: drained ({} flushed, {} already durable, {} failures)",
        report.flushed,
        report.already_durable,
        report.failures.len()
    );
    for (tenant, reason) in &report.failures {
        eprintln!("stpm-serve: tenant {tenant}: final flush failed: {reason}");
    }
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Parsed = (ServiceConfig, String);

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut data_dir: Option<String> = None;
    let mut listen = "127.0.0.1:7171".to_string();
    let mut config_overrides: Vec<(String, u64)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--data-dir" => data_dir = Some(value(&mut i)?),
            "--listen" => listen = value(&mut i)?,
            "--workers"
            | "--tenant-queue-depth"
            | "--global-queue-depth"
            | "--memory-budget-bytes"
            | "--default-deadline-ms"
            | "--mapping-factor" => {
                let raw = value(&mut i)?;
                let parsed: u64 = raw
                    .parse()
                    .map_err(|_| format!("{flag}: not a number: {raw}"))?;
                config_overrides.push((flag.to_string(), parsed));
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    let data_dir = data_dir.ok_or_else(|| "--data-dir is required".to_string())?;
    let mut config = ServiceConfig::new(data_dir);
    for (flag, v) in config_overrides {
        match flag.as_str() {
            "--workers" => config.workers = usize::try_from(v).unwrap_or(usize::MAX),
            "--tenant-queue-depth" => {
                config.tenant_queue_depth = usize::try_from(v).unwrap_or(usize::MAX);
            }
            "--global-queue-depth" => {
                config.global_queue_depth = usize::try_from(v).unwrap_or(usize::MAX);
            }
            "--memory-budget-bytes" => config.memory_budget = Some(MemoryBudget::bytes(v)),
            "--default-deadline-ms" => {
                config.default_deadline = Some(Duration::from_millis(v));
            }
            "--mapping-factor" => config.mapping_factor = v,
            _ => unreachable!("validated above"),
        }
    }
    Ok((config, listen))
}
