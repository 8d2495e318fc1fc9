//! Frequency-based discrete transition estimation.
//!
//! Prior works the paper ablates against ([24], [25], [34] — the `STS-F`
//! variant, and APM's anchor calibration) estimate the transition
//! probability between grid cells as the *frequency* of observed
//! transitions in historical data, shared by all objects. This module
//! implements those counts with Laplace (add-α) smoothing so unseen
//! transitions keep nonzero probability, avoiding the data-sparsity
//! degeneracies the paper mentions (§II).

/// Transition counts over a discrete state space `0 .. n`.
#[derive(Debug, Clone)]
pub struct TransitionCounts {
    n: usize,
    /// Sparse rows: `counts[from]` maps `to -> count`. Kept sorted by key.
    rows: Vec<Vec<(u32, u64)>>,
    row_totals: Vec<u64>,
    alpha: f64,
}

impl TransitionCounts {
    /// Creates an empty table over `n` states with Laplace smoothing
    /// parameter `alpha` (0 disables smoothing; then unseen rows are
    /// uniform by convention).
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "state space must be non-empty");
        assert!(alpha >= 0.0 && alpha.is_finite(), "alpha must be >= 0");
        TransitionCounts {
            n,
            rows: vec![Vec::new(); n],
            row_totals: vec![0; n],
            alpha,
        }
    }

    /// Records one observed transition `from -> to`.
    pub fn record(&mut self, from: usize, to: usize) {
        assert!(from < self.n && to < self.n, "state out of range");
        let row = &mut self.rows[from];
        match row.binary_search_by_key(&(to as u32), |&(k, _)| k) {
            Ok(i) => row[i].1 += 1,
            Err(i) => row.insert(i, (to as u32, 1)),
        }
        self.row_totals[from] += 1;
    }

    /// Records every consecutive pair of a state sequence.
    pub fn record_sequence(&mut self, states: &[usize]) {
        for w in states.windows(2) {
            self.record(w[0], w[1]);
        }
    }

    /// Raw count of `from -> to`.
    pub fn count(&self, from: usize, to: usize) -> u64 {
        assert!(from < self.n && to < self.n, "state out of range");
        self.rows[from]
            .binary_search_by_key(&(to as u32), |&(k, _)| k)
            .map(|i| self.rows[from][i].1)
            .unwrap_or(0)
    }

    /// Total transitions recorded out of `from`.
    pub fn row_total(&self, from: usize) -> u64 {
        self.row_totals[from]
    }

    /// Smoothed transition probability
    /// `(count + α) / (row_total + α·n)`; rows with no data and α = 0
    /// fall back to the uniform distribution.
    pub fn probability(&self, from: usize, to: usize) -> f64 {
        let total = self.row_totals[from] as f64;
        let c = self.count(from, to) as f64;
        let denom = total + self.alpha * self.n as f64;
        if denom == 0.0 {
            return 1.0 / self.n as f64;
        }
        (c + self.alpha) / denom
    }

    /// The full outgoing distribution of `from` as a dense vector.
    pub fn distribution(&self, from: usize) -> Vec<f64> {
        (0..self.n).map(|to| self.probability(from, to)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut t = TransitionCounts::new(4, 0.0);
        t.record(0, 1);
        t.record(0, 1);
        t.record(0, 2);
        assert_eq!(t.count(0, 1), 2);
        assert_eq!(t.count(0, 2), 1);
        assert_eq!(t.count(0, 3), 0);
        assert_eq!(t.row_total(0), 3);
        assert_eq!(t.row_total(1), 0);
    }

    #[test]
    fn record_sequence_counts_pairs() {
        let mut t = TransitionCounts::new(3, 0.0);
        t.record_sequence(&[0, 1, 1, 2, 0]);
        assert_eq!(t.count(0, 1), 1);
        assert_eq!(t.count(1, 1), 1);
        assert_eq!(t.count(1, 2), 1);
        assert_eq!(t.count(2, 0), 1);
        assert_eq!(t.row_total(1), 2);
    }

    #[test]
    fn probabilities_without_smoothing() {
        let mut t = TransitionCounts::new(3, 0.0);
        t.record(0, 1);
        t.record(0, 1);
        t.record(0, 2);
        assert!((t.probability(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.probability(0, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.probability(0, 0), 0.0);
        // Empty row -> uniform fallback.
        assert!((t.probability(1, 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_with_laplace() {
        let mut t = TransitionCounts::new(2, 1.0);
        t.record(0, 0);
        // (1 + 1) / (1 + 2) and (0 + 1) / (1 + 2)
        assert!((t.probability(0, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.probability(0, 1) - 1.0 / 3.0).abs() < 1e-12);
        // Unseen row: uniform.
        assert!((t.probability(1, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rows_sum_to_one() {
        let mut t = TransitionCounts::new(5, 0.5);
        t.record_sequence(&[0, 1, 2, 3, 4, 0, 2, 2, 1]);
        for from in 0..5 {
            let sum: f64 = t.distribution(from).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {from} sums to {sum}");
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_state_panics() {
        let mut t = TransitionCounts::new(2, 0.0);
        t.record(0, 5);
    }
}
