//! What the host says about this process: peak resident memory and CPU
//! time, read from `/proc/self`.

use std::fs;

/// Peak resident set size (VmHWM) of this process in MB (10^6 bytes),
/// or `None` where `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Kernel clock ticks per second in `/proc/self/stat` (USER_HZ, fixed at
/// 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// `(user_s, sys_s)` CPU time of this process so far, all threads.
pub fn cpu_times_s() -> Option<(f64, f64)> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_S, stime / TICKS_PER_S))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_self_is_readable_on_linux() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(cpu_times_s().is_some());
    }
}
