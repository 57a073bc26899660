//! Percentile selection, window aggregation and the validity rule that
//! decides which windows count.

/// The highest percentile not above `want` that still leaves at least
/// ten samples beyond it (the choosing-metrics rule); never below the
/// median, so a starved sample degrades to p50 rather than to nothing.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return want;
    }
    want.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// Nearest-rank value at the supported percentile of `samples`
/// (unsorted; sorted in place). `None` when there is nothing to rank.
pub fn percentile(samples: &mut [f64], want: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let p = supported_percentile(samples.len(), want);
    let rank = (p * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// How a metric's per-window values fold into the reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Robust to one disturbed window.
    Median,
    /// For costs that interference can only inflate.
    Min,
    Max,
}

impl Aggregate {
    pub fn label(self) -> &'static str {
        match self {
            Aggregate::Median => "median",
            Aggregate::Min => "min",
            Aggregate::Max => "max",
        }
    }

    pub fn apply(self, values: &[f64]) -> f64 {
        if values.is_empty() {
            return f64::NAN;
        }
        match self {
            Aggregate::Median => median(values),
            Aggregate::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregate::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) — the same number the driver computes. `None`
/// for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

/// What the host did to one window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowEnv {
    /// Share of CPU time the hypervisor gave to someone else.
    pub steal_ratio: f64,
    /// Worst lateness of a paced generator, µs (0 for closed loops).
    pub late_max_us: f64,
    /// Transitions nobody scripted. On a live clock a stalled thread —
    /// the generator, or the monitor's intake while its sweepers run —
    /// makes heartbeats late and the detector rightly suspects; such a
    /// window measures the host, so it is re-run like any other invalid
    /// one, and its failures count only if it has to be used anyway.
    pub off_script: u64,
}

/// Steal above this share of a window invalidates it.
pub const MAX_STEAL: f64 = 0.02;
/// Generator lateness above this invalidates a window: a stalled
/// generator causes the suspicions it is supposed to measure (the live
/// workloads' margin is 40 ms).
pub const MAX_LATE_US: f64 = 20_000.0;

impl WindowEnv {
    pub fn valid(&self) -> bool {
        self.steal_ratio <= MAX_STEAL && self.late_max_us <= MAX_LATE_US && self.off_script == 0
    }
}

/// The windows a workload ended up with.
#[derive(Debug)]
pub struct Windows<T> {
    pub used: Vec<(T, WindowEnv)>,
    /// Extra windows run to replace invalid ones.
    pub rerun: u32,
    /// Fewer than `want` valid windows even after the re-runs; the
    /// shortfall was filled with the least disturbed invalid ones.
    pub disturbed: bool,
}

/// Runs `window(i)` until `want` valid windows exist, spending at most
/// `max_extra` additional runs on replacing invalid ones.
pub fn collect_windows<T>(
    want: usize,
    max_extra: usize,
    mut window: impl FnMut(usize) -> (T, WindowEnv),
) -> Windows<T> {
    let mut valid = Vec::new();
    let mut invalid = Vec::new();
    let mut runs = 0;
    while valid.len() < want && runs < want + max_extra {
        let (value, env) = window(runs);
        runs += 1;
        if env.valid() {
            valid.push((value, env));
        } else {
            invalid.push((value, env));
        }
    }
    let disturbed = valid.len() < want;
    if disturbed {
        // Least disturbed first: steal and lateness on a common scale.
        invalid.sort_by(|a, b| badness(&a.1).total_cmp(&badness(&b.1)));
        let missing = want - valid.len();
        valid.extend(invalid.into_iter().take(missing));
    }
    Windows {
        used: valid,
        rerun: runs.saturating_sub(want) as u32,
        disturbed,
    }
}

fn badness(env: &WindowEnv) -> f64 {
    (env.steal_ratio / MAX_STEAL)
        .max(env.late_max_us / MAX_LATE_US)
        .max(env.off_script as f64 * 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_backs_off_until_ten_samples_lie_beyond() {
        // 1000 samples support p99 exactly; 200 support p95; 50 p80.
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert!((supported_percentile(200, 0.99) - 0.95).abs() < 1e-12);
        assert!((supported_percentile(50, 0.90) - 0.80).abs() < 1e-12);
        // Starved samples degrade to the median, not below.
        assert_eq!(supported_percentile(12, 0.99), 0.5);
        assert_eq!(supported_percentile(2000, 0.90), 0.90);
    }

    #[test]
    fn percentile_is_nearest_rank_on_the_supported_level() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&mut v.clone(), 0.90), Some(90.0));
        // p99 of 100 samples is unsupported: backs off to p90.
        assert_eq!(percentile(&mut v, 0.99), Some(90.0));
        assert_eq!(percentile(&mut [], 0.9), None);
        assert_eq!(percentile(&mut [7.0], 0.9), Some(7.0));
    }

    #[test]
    fn aggregates() {
        let w = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(Aggregate::Median.apply(&w), 5.0);
        assert_eq!(Aggregate::Min.apply(&w), 1.0);
        assert_eq!(Aggregate::Max.apply(&w), 9.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert!(Aggregate::Median.apply(&[]).is_nan());
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let v = [50.0, 10.0, 30.0, 20.0, 40.0];
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    fn env(steal: f64, late: f64) -> WindowEnv {
        WindowEnv {
            steal_ratio: steal,
            late_max_us: late,
            off_script: 0,
        }
    }

    #[test]
    fn invalid_windows_are_replaced_up_to_the_budget() {
        // Windows 1 and 3 are disturbed; two re-runs replace them.
        let script = [
            env(0.0, 0.0),
            env(0.05, 0.0),
            env(0.0, 0.0),
            WindowEnv {
                off_script: 3,
                ..env(0.0, 0.0)
            },
            env(0.0, 0.0),
            env(0.001, 19_000.0),
            env(0.0, 0.0),
        ];
        let w = collect_windows(5, 3, |i| (i, script[i]));
        assert_eq!(
            w.used.iter().map(|u| u.0).collect::<Vec<_>>(),
            [0, 2, 4, 5, 6]
        );
        assert_eq!(w.rerun, 2);
        assert!(!w.disturbed);
    }

    #[test]
    fn exhausted_budget_fills_with_the_least_disturbed_and_says_so() {
        let script = [
            env(0.0, 0.0),
            env(0.30, 0.0),
            env(0.03, 0.0),
            env(0.0, 0.0),
            env(0.0, 40_000.0),
            env(0.10, 0.0),
            env(0.0, 0.0),
            env(0.0, 0.0),
        ];
        let w = collect_windows(5, 3, |i| (i, script[i]));
        // Valid: 0, 3, 6, 7; the filler is window 2 (1.5x the steal
        // limit), not 4 (2x lateness), 5 or 1.
        assert_eq!(
            w.used.iter().map(|u| u.0).collect::<Vec<_>>(),
            [0, 3, 6, 7, 2]
        );
        assert_eq!(w.rerun, 3);
        assert!(w.disturbed);
    }
}
