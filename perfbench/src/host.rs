//! Host-side readings from procfs: peak resident memory and the calling
//! thread's scheduler statistics.

/// This process's peak resident set (`VmHWM` in `/proc/self/status`),
/// in MiB. Every benchmark run is its own process and runs one workload,
/// so the mark is that workload's own.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The calling thread's scheduler clock: time on a CPU and time spent
/// runnable but waiting on a runqueue.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// Seconds on a CPU.
    pub cpu_s: f64,
    /// Seconds runnable but waiting for a CPU.
    pub runq_wait_s: f64,
}

impl Sched {
    /// Reads `/proc/thread-self/schedstat` (`<on-cpu ns> <wait ns>
    /// <timeslices>`). Zeros where the kernel does not provide it.
    pub fn now() -> Sched {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let cpu_ns = fields.next().unwrap_or(0);
        let wait_ns = fields.next().unwrap_or(0);
        Sched {
            cpu_s: cpu_ns as f64 / 1e9,
            runq_wait_s: wait_ns as f64 / 1e9,
        }
    }

    /// The readings accumulated since `earlier`.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            cpu_s: self.cpu_s - earlier.cpu_s,
            runq_wait_s: self.runq_wait_s - earlier.runq_wait_s,
        }
    }
}
