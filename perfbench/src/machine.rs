//! Facts about the process and the host: memory and CPU use read from
//! `/proc`, the machine facts every run records, and the scratch directory
//! durable workloads keep their files in.

use std::path::{Path, PathBuf};

/// Where runs keep data and traces, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// User and system CPU seconds this process has used, all threads included.
/// `/proc/self/stat` counts in clock ticks of 1/100 s on Linux.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) / 100.0, ticks(12) / 100.0)
}

/// Flushes the dirty pages of the filesystem holding `dir` (`sync -f`) and
/// waits for the flush, so that a round does not pay for the write-back of
/// what the round or run before it wrote and deleted. Best effort: without
/// `sync` the round starts unflushed.
pub fn settle_disk(dir: &Path) {
    let _ = std::process::Command::new("sync")
        .arg("-f")
        .arg(dir)
        .status();
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|line| {
            let (pre, post) = line.split_once(" - ")?;
            let mount = pre.split_whitespace().nth(4)?;
            let fs = post.split_whitespace().next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The machine facts a result is only comparable under, as a JSON object.
pub fn facts_json(data_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"data_dir_fs\":\"{}\",\"simd\":\"{}\",\"force_scalar\":{}}}",
        fs_type(data_dir),
        freqstpfts::core::simd::detected().name(),
        std::env::var_os("STPM_FORCE_SCALAR").is_some()
    )
}

/// A per-run scratch directory under [`OUT_DIR`], removed when dropped —
/// also while a failed run unwinds.
#[derive(Debug)]
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    pub fn create(workload: &str) -> std::io::Result<Self> {
        remove_stale()?;
        let path = Path::new(OUT_DIR).join(format!("data-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes data directories left by runs whose process no longer exists
/// (killed before their own clean-up ran).
fn remove_stale() -> std::io::Result<()> {
    let Ok(entries) = std::fs::read_dir(OUT_DIR) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pid) = name
            .strip_prefix("data-")
            .and_then(|r| r.rsplit('-').next())
        else {
            continue;
        };
        if !Path::new("/proc").join(pid).exists() {
            std::fs::remove_dir_all(entry.path())?;
        }
    }
    Ok(())
}
