//! What the host contributes to a measurement: provenance, the running
//! thread's CPU time and run-queue wait, and the process's peak memory.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

/// CPU time and run-queue wait of the calling thread, ns, from
/// `/proc/thread-self/schedstat`. Zeros where the file is unavailable.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sched {
    /// Time spent on a CPU.
    pub cpu_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

impl Sched {
    /// Reads the current thread's counters.
    pub fn now() -> Sched {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text.split_whitespace().map(|f| f.parse().unwrap_or(0));
        Sched {
            cpu_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Host seconds taken by a fixed piece of work that does not depend on the
/// simulator: a seeded mix of inserts, lookups and removals on a standard
/// `HashMap` of up to 100k keys. Like the simulator it is hash-, branch-
/// and cache-bound, so its time tracks how fast the host runs such code
/// at the moment (on a shared VM that speed swings by up to 2x over tens
/// of seconds).
pub fn calibration_s() -> f64 {
    let start = std::time::Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    let (mut x, mut sum) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 100_000;
        match x % 3 {
            0 => {
                map.insert(key, x);
            }
            1 => sum = sum.wrapping_add(map.get(&key).copied().unwrap_or(1)),
            _ => {
                map.remove(&key);
            }
        }
    }
    std::hint::black_box((map.len(), sum));
    start.elapsed().as_secs_f64()
}

/// Operations in one calibration pass.
const CALIBRATION_STEPS: usize = 1 << 20;

/// Peak resident memory of this process, MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One line naming the code and host a result was measured on.
pub fn provenance(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    format!(
        "git={} nproc={nproc} kernel={kernel} rustc=\"{rustc}\" seed={seed}",
        git_rev()
    )
}

/// The checkout's revision with a `-dirty` suffix for uncommitted changes;
/// `none` outside a git checkout (git is not asked, so that it cannot
/// report an enclosing repository instead).
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    let Some(rev) = command_output("git", &["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = command_output("git", &["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|s| !s.is_empty());
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
