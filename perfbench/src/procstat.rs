//! Host-noise counters read from `/proc`: the thread's run-queue wait,
//! the machine's hypervisor steal, and this process's minor faults. They
//! let a noisy run be told apart from a slow program; none of them is a
//! cost of the program itself.

use std::fs;

/// One reading of the counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// Time this thread spent runnable but waiting for a CPU (ns).
    pub sched_wait_ns: u64,
    /// Machine-wide hypervisor steal, in clock ticks.
    pub steal_ticks: u64,
    /// Minor page faults of this process.
    pub minflt: u64,
}

/// The change between two readings.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcDelta {
    pub sched_wait_ms: f64,
    pub steal_ticks: f64,
    pub minflt: f64,
}

pub fn sample() -> ProcSample {
    ProcSample {
        sched_wait_ns: sched_wait_ns().unwrap_or(0),
        steal_ticks: steal_ticks().unwrap_or(0),
        minflt: minflt().unwrap_or(0),
    }
}

impl ProcSample {
    pub fn since(&self, start: &ProcSample) -> ProcDelta {
        ProcDelta {
            sched_wait_ms: self.sched_wait_ns.saturating_sub(start.sched_wait_ns) as f64 / 1e6,
            steal_ticks: self.steal_ticks.saturating_sub(start.steal_ticks) as f64,
            minflt: self.minflt.saturating_sub(start.minflt) as f64,
        }
    }
}

/// `/proc/thread-self/schedstat`: `run_ns wait_ns timeslices`.
fn sched_wait_ns() -> Option<u64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`, in
/// `USER_HZ` ticks (10 ms each on Linux).
fn steal_ticks() -> Option<u64> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Field 10 (`minflt`) of `/proc/self/stat`, counted after the command
/// name, which may itself hold spaces.
fn minflt() -> Option<u64> {
    let text = fs::read_to_string("/proc/self/stat").ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
