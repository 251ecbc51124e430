//! Measurement plumbing shared by every workload: run limits, the result of
//! one closed-loop phase, percentiles, and process counters from `/proc`.

use std::time::Instant;

/// When a closed-loop phase stops.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this many seconds of timed loop (the op in flight completes).
    Seconds(f64),
    /// After exactly this many ops (the traced replay of an untraced phase).
    Ops(u64),
}

impl Limit {
    /// Whether a phase that has completed `ops` ops in `timed_s` seconds of
    /// timed loop must stop now.
    pub fn reached(self, ops: u64, timed_s: f64) -> bool {
        match self {
            Limit::Seconds(seconds) => timed_s >= seconds,
            Limit::Ops(n) => ops >= n,
        }
    }
}

/// One correctness gate and whether it held.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Gate {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Gate {
        Gate { name: name.into(), ok, detail: detail.into() }
    }
}

/// What one closed-loop phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops completed.
    pub ops: u64,
    /// Ops whose own output failed a check.
    pub failed: u64,
    /// Wall-clock seconds of the timed loop. Work done between passes to
    /// build the next pass's inputs or to verify the last pass is excluded;
    /// nothing inside a pass is.
    pub wall_s: f64,
    /// Per-op latency in milliseconds, in issue order.
    pub latencies_ms: Vec<f64>,
    /// Throughput (ops/s) of each complete window: a round of designs, a
    /// pass of fuzz cases or editing sessions.
    pub window_rates: Vec<f64>,
    /// Whole-phase correctness gates.
    pub gates: Vec<Gate>,
}

impl Phase {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }

    /// Records a complete window of `ops` ops that took `seconds`.
    pub fn close_window(&mut self, ops: u64, seconds: f64) {
        if seconds > 0.0 {
            self.window_rates.push(ops as f64 / seconds);
        }
    }

    /// Wall-clock throughput: the median over complete windows, which
    /// shrugs off a burst of interference from other tenants of the host,
    /// or ops over the whole loop when there are fewer than three windows.
    pub fn ops_per_s(&self) -> f64 {
        if self.window_rates.len() >= 3 {
            median(&self.window_rates)
        } else {
            self.ops as f64 / self.wall_s
        }
    }

    /// Percentile `q` of op latency, robust to the same bursts: the samples
    /// are cut, in issue order, into blocks of [`LATENCY_BLOCK`] ops (the
    /// last block takes the remainder), and the result is the median over
    /// blocks of each block's percentile; with fewer than three blocks, the
    /// percentile of all samples. Returns the value, the number of blocks,
    /// and the fewest samples beyond the percentile in any block.
    pub fn latency(&self, q: f64) -> (f64, usize, usize) {
        let samples = &self.latencies_ms;
        let blocks = samples.len() / LATENCY_BLOCK;
        if blocks < 3 {
            let (value, beyond) = percentile(samples, q);
            return (value, 1, beyond);
        }
        let mut values = Vec::with_capacity(blocks);
        let mut fewest_beyond = usize::MAX;
        for block in 0..blocks {
            let end = if block + 1 == blocks { samples.len() } else { (block + 1) * LATENCY_BLOCK };
            let (value, beyond) = percentile(&samples[block * LATENCY_BLOCK..end], q);
            values.push(value);
            fewest_beyond = fewest_beyond.min(beyond);
        }
        (median(&values), blocks, fewest_beyond)
    }
}

/// Ops per latency block: enough that a block's 99th percentile has ten
/// samples beyond it.
pub const LATENCY_BLOCK: usize = 1000;

/// Nearest-rank percentile of an unsorted sample (`q` in `0.0..=1.0`),
/// together with the number of samples strictly above it.
pub fn percentile(samples: &[f64], q: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    (value, sorted.len() - rank)
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `start`.
pub fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` `times` times and returns the last result with the median
/// set-up time in seconds. Repeating absorbs first-touch costs (page faults,
/// lazy statics) and a noisy neighbour in any single attempt.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut samples = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        let value = setup();
        samples.push(secs(start));
        last = Some(value);
    }
    (last.expect("at least one set-up ran"), median(&samples))
}

/// Process counters read from `/proc/self/stat` and `/proc/self/status`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSnapshot {
    /// User CPU seconds of every thread of the process, exited ones included.
    pub user_s: f64,
    /// System CPU seconds of every thread of the process.
    pub sys_s: f64,
    /// Voluntary context switches of the calling (client) thread.
    pub voluntary_ctx: u64,
    /// Involuntary context switches of the calling (client) thread.
    pub involuntary_ctx: u64,
    /// Peak resident set size of the process in KiB (`VmHWM`).
    pub vm_hwm_kb: u64,
}

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// reports them in `USER_HZ`, which is 100 on every mainstream
/// architecture; std exposes no `sysconf`, and the workspace forbids the
/// `unsafe` a libc call would need.
const USER_HZ: f64 = 100.0;

impl ProcSnapshot {
    /// Reads the counters now. Fields the kernel does not expose read zero.
    pub fn now() -> ProcSnapshot {
        let mut snap = ProcSnapshot::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; `utime` and
            // `stime` are fields 14 and 15 of the whole line.
            if let Some(rest) = stat.rfind(')').map(|at| &stat[at + 1..]) {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
                snap.user_s = tick(11).unwrap_or(0.0) / USER_HZ;
                snap.sys_s = tick(12).unwrap_or(0.0) / USER_HZ;
            }
        }
        if let Ok(status) = std::fs::read_to_string("/proc/thread-self/status") {
            snap.voluntary_ctx = status_field(&status, "voluntary_ctxt_switches:");
            snap.involuntary_ctx = status_field(&status, "nonvoluntary_ctxt_switches:");
        }
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            snap.vm_hwm_kb = status_field(&status, "VmHWM:");
        }
        snap
    }

    /// Counter deltas from `earlier` to `self` (the peak is taken as is).
    pub fn since(&self, earlier: &ProcSnapshot) -> ProcSnapshot {
        ProcSnapshot {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            voluntary_ctx: self.voluntary_ctx.saturating_sub(earlier.voluntary_ctx),
            involuntary_ctx: self.involuntary_ctx.saturating_sub(earlier.involuntary_ctx),
            vm_hwm_kb: self.vm_hwm_kb,
        }
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// resident size, so the next reading covers only what runs after this.
/// Best effort: a kernel without the reset leaves the peak since start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// On-CPU nanoseconds of the calling thread so far, from the first field of
/// `/proc/thread-self/schedstat`.
pub fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), (990.0, 10));
        assert_eq!(percentile(&samples, 0.5), (500.0, 500));
        assert_eq!(percentile(&[3.0], 0.99), (3.0, 0));
    }

    #[test]
    fn block_latency_ignores_one_slow_block() {
        let mut phase =
            Phase { latencies_ms: vec![1.0; 4 * LATENCY_BLOCK + 10], ..Phase::default() };
        phase.latencies_ms[..LATENCY_BLOCK].fill(50.0);
        assert_eq!(phase.latency(0.99), (1.0, 4, 10));
        phase.latencies_ms.truncate(2 * LATENCY_BLOCK);
        assert_eq!(phase.latency(0.5).1, 1, "too few blocks: one percentile over all");
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_counters_are_readable() {
        let snap = ProcSnapshot::now();
        assert!(snap.vm_hwm_kb > 0);
        assert!(thread_cpu_ns().is_some());
    }
}
