//! The host fingerprint recorded with every result, and the process
//! counters (CPU time, peak resident memory) the end-to-end metrics
//! read. Linux only: CPU time comes from the process CPU clock and
//! peak memory from `/proc/self/status`.

use crate::json::Json;
use mmm_core::Cios52Kernel;
use std::process::Command;

/// Removes every `MMM_*` variable from this process's environment, and
/// so from the set-up probes it spawns. The workloads build from
/// `EngineConfig::default()`; clearing the variables also keeps the
/// process-wide pool and default backend, which read them, on their
/// defaults, so a stray `MMM_ENGINE`, `MMM_VERIFY` or `MMM_HARDENED`
/// cannot change what is measured. Must run before any thread starts.
/// Returns the names it removed.
pub fn clear_mmm_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MMM_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the whole process, every thread including ended ones,
/// in seconds. Read from the process CPU clock, which counts in ns:
/// the tick counters of `/proc/self/stat` (10 ms) are too coarse for
/// one-second windows.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` that outlives
    // the call, and the clock id is one the kernel always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A Linux `cpu_set_t`: one bit per CPU, for up to 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed, and pid
    // 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "the calling thread's CPU mask is readable");
    (0..1024)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and the threads it starts afterwards,
/// to `cpus` (taken from [`allowed_cpus`]).
///
/// Single-threaded measurements rotate over the allowed CPUs with this.
/// On a shared host one core can run at half speed for minutes while the
/// other runs at full speed, and the scheduler, which cannot see that,
/// may keep a thread on the slow one; rotating gives every core its
/// share of the samples.
pub fn pin(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a readable `cpu_set_t` of the size passed, and pid
    // 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(
        rc, 0,
        "the calling thread may run on the CPUs of its own mask"
    );
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// What the results were measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub parallelism: usize,
    pub kernels: Vec<&'static str>,
    pub active_kernel: &'static str,
    pub backend: &'static str,
    pub git_sha: String,
    pub seed: u64,
    pub ignored_env: Vec<String>,
}

impl Fingerprint {
    pub fn collect(seed: u64, backend: &'static str, ignored_env: Vec<String>) -> Self {
        Fingerprint {
            cpu_model: cpu_model(),
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernels: Cios52Kernel::available().iter().map(|k| k.name()).collect(),
            active_kernel: Cios52Kernel::active().name(),
            backend,
            git_sha: git_sha(),
            seed,
            ignored_env,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host: cpu=\"{}\" available_parallelism={} cios52_kernels=[{}] cios52_active={} \
             backend={} git={} seed={} ignored_env=[{}]",
            self.cpu_model,
            self.parallelism,
            self.kernels.join(","),
            self.active_kernel,
            self.backend,
            self.git_sha,
            self.seed,
            self.ignored_env.join(",")
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cpu_model", Json::str(&self.cpu_model)),
            ("available_parallelism", Json::Int(self.parallelism as u64)),
            (
                "cios52_kernels_available",
                Json::Arr(self.kernels.iter().map(|k| Json::str(*k)).collect()),
            ),
            ("cios52_kernel_active", Json::str(self.active_kernel)),
            ("backend", Json::str(self.backend)),
            ("git_sha", Json::str(&self.git_sha)),
            ("seed", Json::Int(self.seed)),
            (
                "ignored_env",
                Json::Arr(self.ignored_env.iter().map(Json::str).collect()),
            ),
        ])
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_and_advance() {
        let spin = || {
            let mut x = 0u64;
            let start = std::time::Instant::now();
            while start.elapsed().as_millis() < 60 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        };
        let before = process_cpu_s();
        // A thread that has ended still counts.
        std::thread::spawn(spin).join().expect("spinner");
        assert!(process_cpu_s() - before > 0.04);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn pinning_narrows_and_restores_the_cpu_mask() {
        std::thread::spawn(|| {
            let cpus = allowed_cpus();
            assert!(!cpus.is_empty());
            pin(&cpus[cpus.len() - 1..]);
            assert_eq!(allowed_cpus(), cpus[cpus.len() - 1..]);
            pin(&cpus);
            assert_eq!(allowed_cpus(), cpus);
        })
        .join()
        .expect("pinning thread");
    }
}
