//! Sample summaries: median plus the highest percentile that still has at
//! least ten samples beyond it.

/// Timing samples of one metric, in the metric's unit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

/// A tail percentile needs at least this many samples above it.
const TAIL_MARGIN: usize = 10;

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the two middle samples for an even count); NaN when
    /// empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
        }
    }

    /// `(percentile, value)` of the highest order statistic with at least
    /// ten samples above it, or `None` with fewer than eleven samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        if n <= TAIL_MARGIN {
            return None;
        }
        let k = n - TAIL_MARGIN - 1;
        Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
    }

    /// One-line summary: `median; pXX tail; n=…`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!("p{p:.1} {v:.6e} {unit}"),
            None => "no tail percentile (<11 samples)".to_string(),
        };
        format!(
            "median {:.6e} {unit}; {tail}; n={}",
            self.median(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let mut s = Samples::default();
        for v in 1..=20 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 10.5);
        // 10 samples (11..=20) lie above the 10th order statistic.
        assert_eq!(s.tail(), Some((50.0, 10.0)));
        let mut few = Samples::default();
        few.push(3.0);
        assert!(few.tail().is_none());
        assert_eq!(few.median(), 3.0);
    }
}
