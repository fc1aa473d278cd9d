//! Order statistics over raw samples and the peak-memory reading.

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by the nearest-rank
/// method: the smallest sample with at least `p`% of the samples at or
/// below it. Always one of the samples, never an interpolation or a
/// histogram bucket bound. `None` for an empty input.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Peak resident set size in KiB from the text of `/proc/<pid>/status`
/// (its `VmHWM:` line). `None` when the line is absent or malformed.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_samples_on_a_known_vector() {
        // 1..=20 shuffled: rank ⌈p·N/100⌉ of the sorted vector.
        let v: Vec<f64> = [
            7, 3, 19, 1, 12, 20, 5, 9, 14, 2, 18, 6, 11, 16, 4, 8, 15, 10, 17, 13,
        ]
        .iter()
        .map(|&x| x as f64)
        .collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(18.0));
        assert_eq!(nearest_rank(&v, 95.0), Some(19.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(1.0));
        // Odd length: the median is the middle sample.
        assert_eq!(nearest_rank(&[3.5, 1.25, 2.0], 50.0), Some(2.0));
        // A value between two samples is never produced: p90 of ten is the
        // ninth sample.
        let ten: Vec<f64> = (1..=10).map(|x| x as f64 * 1.5).collect();
        assert_eq!(nearest_rank(&ten, 90.0), Some(13.5));
        assert_eq!(nearest_rank(&ten, 91.0), Some(15.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 0.0), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kib_and_rejects_malformed_lines() {
        let status =
            "Name:\troundbench\nVmPeak:\t  912344 kB\nVmHWM:\t  476812 kB\nVmRSS:\t  401200 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(476_812));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t  12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t  lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\n"), None);
    }

    #[test]
    fn this_process_reports_a_peak() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
