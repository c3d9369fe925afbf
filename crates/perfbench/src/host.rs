//! Host facts: process memory from `/proc/self/status` and the CPU model.

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in KiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:").unwrap_or(0)
}

/// Current resident set size of this process in KiB (`VmRSS`), 0 where the
/// kernel does not report it.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:").unwrap_or(0)
}

/// CPU time this process has used, all threads (exited ones included), in
/// seconds, from `/proc/self/stat` (0 where unavailable). The kernel
/// reports it in 1/100 s ticks (`USER_HZ`, 100 on Linux), and time the
/// hypervisor stole from the machine is not in it.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces;
    // utime and stime are fields 14 and 15, so 11 and 12 after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// CPU time the calling thread has used, in seconds, from
/// `/proc/thread-self/schedstat` (0 where unavailable). The kernel brings
/// it up to date at each scheduler tick, so it resolves a few milliseconds;
/// like [`process_cpu_s`], it leaves out time the hypervisor stole.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// Steal and total CPU time of the host's view of this machine, in clock
/// ticks (the `cpu` line of `/proc/stat`), or `None` where unavailable.
/// Steal is time the hypervisor ran something else on this machine's CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal; guest time is already
    // counted in user and nice.
    let first = fields.get(..8)?;
    Some((first[7], first.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_ticks`]
/// readings (0 where unavailable).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
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

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
