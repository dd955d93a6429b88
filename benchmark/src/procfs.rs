//! Process CPU time and peak memory, read from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields. The kernel reports
/// them in `USER_HZ`, which is 100 on every Linux target Rust supports;
/// reading it properly needs `sysconf`, i.e. a libc binding this package
/// does not otherwise need.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU ticks (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// Field 2, the command name, may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3, so fields 14 and 15 are items 11, 12.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_status_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `Threads` (living threads) of a `/proc/<pid>/status` text.
pub fn parse_status_threads(status: &str) -> Option<usize> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))?;
    rest.trim().parse().ok()
}

/// Living threads of this process.
pub fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_threads(&status)
}

/// CPU seconds this process (all threads, living and joined) has used.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|ticks| ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (pmcmc (bench) x) S 1 4242 4242 0 -1 4194560 5120 0 3 0 \
        731 29 0 0 20 0 5 0 8837 1234567 2345 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 29));
    }

    #[test]
    fn stat_rejects_truncated_or_garbled_lines() {
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
        let garbled = STAT.replace("731", "many");
        assert_eq!(parse_stat_cpu_ticks(&garbled), None);
    }

    #[test]
    fn status_vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tpmcmc-benchmark\nVmPeak:\t  900000 kB\nVmHWM:\t  223456 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_status_vm_hwm_kb(status), Some(223_456));
        assert_eq!(parse_status_vm_hwm_kb("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_status_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
