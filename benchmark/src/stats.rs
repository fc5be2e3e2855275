//! Small numeric helpers: rep statistics, the FNV-1a fingerprint hash, and
//! the two `/proc` readers behind `cpu_s` and `peak_rss_mb`.

/// Median, min and max over the reps of one run. Three to six reps cannot
/// support a percentile, so none is reported; `n` is stated with every use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mmm {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Median/min/max of `xs` (all zero for an empty slice). An even count
/// takes the mean of the two middle values.
pub fn mmm(xs: &[f64]) -> Mmm {
    if xs.is_empty() {
        return Mmm {
            median: 0.0,
            min: 0.0,
            max: 0.0,
            n: 0,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    Mmm {
        median,
        min: v[0],
        max: v[v.len() - 1],
        n: v.len(),
    }
}

pub fn median(xs: &[f64]) -> f64 {
    mmm(xs).median
}

/// FNV-1a, the same fingerprint hash the repo's older bench bins use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whole-process CPU seconds (utime + stime of `/proc/self/stat`, which
/// keeps the time of worker threads that have already exited). The kernel
/// reports clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat) as f64 / 100.0
}

/// utime + stime from one `/proc/<pid>/stat` line. The command name may
/// contain spaces and parentheses, so fields are counted after the last
/// `)`: state is field 3, utime 14, stime 15.
fn parse_cpu_ticks(stat: &str) -> u64 {
    let Some(close) = stat.rfind(')') else {
        return 0;
    };
    let mut fields = stat[close + 1..].split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    utime + stime
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status) as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_odd_even_and_empty() {
        let m = mmm(&[3.0, 1.0, 2.0]);
        assert_eq!((m.median, m.min, m.max, m.n), (2.0, 1.0, 3.0, 3));
        let m = mmm(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((m.median, m.min, m.max, m.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(mmm(&[]).n, 0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn proc_parsers_survive_odd_command_names() {
        let stat = "123 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), 300);
        assert_eq!(parse_cpu_ticks("garbage"), 0);
        let status = "Name:\tx\nVmPeak:\t  10 kB\nVmHWM:\t   2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), 2048);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
