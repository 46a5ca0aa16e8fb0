//! Order statistics and small process probes shared by every workload.

/// The median of `values` (mean of the middle pair for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The mean of the slowest tenth of `values` (at least one value).
/// Unlike a percentile of a few fixed populations of operations, it
/// does not jump when noise reorders two samples at a population's edge.
/// Callers pass at least a hundred values, so the tail holds ten.
pub fn tail_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let n = values.len().div_ceil(10).max(1).min(v.len());
    mean(&v[..n])
}

/// The interquartile mean: the mean of the middle half of `values`
/// (all of them when there are fewer than four). A median of a few
/// dozen operations jumps whenever noise reorders the operations next
/// to it; the mean of the middle half moves smoothly.
pub fn mid_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// Arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB, read from
/// `/proc/<pid>/status`; `None` where that file is unavailable.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_mean(&hundred), 95.5);
        assert_eq!(mid_mean(&hundred), 50.5);
        assert_eq!(mid_mean(&[1.0, 2.0, 9.0]), 4.0);
    }
}
