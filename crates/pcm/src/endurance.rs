//! Cell endurance modeling.
//!
//! Each PCM cell tolerates a finite number of programming events before it
//! becomes stuck in its present state (Section II-A). Following the paper's
//! lifetime methodology (Section VI-A), per-cell lifetimes are drawn from a
//! normal distribution around the nominal endurance (10^8 writes) with a
//! coefficient of variation of 0.2, reflecting process variation; cells in
//! the same row draw from the same generator so spatially correlated
//! weakness emerges from a shared row-level factor.

use memcrypt::SplitMix64;

/// Row-level share of endurance variance used with the paper's
/// configurations: weak cells cluster moderately within a row.
pub const PAPER_ROW_CORRELATION: f64 = 0.3;

/// Deterministic sampler of per-cell endurance limits.
#[derive(Debug, Clone, Copy)]
pub struct EnduranceModel {
    mean: f64,
    cov: f64,
    /// Strength of the row-level common factor in [0, 1): 0 = fully
    /// independent cells, larger values make weak cells cluster in rows
    /// (Section II-A cites spatially correlated process variation).
    row_correlation: f64,
    seed: u64,
}

impl EnduranceModel {
    /// Creates an endurance model.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`, `cov` is not in `[0, 1)`, or `row_correlation`
    /// is not in `[0, 1)`.
    pub fn new(mean: f64, cov: f64, row_correlation: f64, seed: u64) -> Self {
        assert!(mean > 0.0, "mean endurance must be positive");
        assert!((0.0..1.0).contains(&cov), "CoV must be in [0, 1)");
        assert!(
            (0.0..1.0).contains(&row_correlation),
            "row correlation must be in [0, 1)"
        );
        EnduranceModel {
            mean,
            cov,
            row_correlation,
            seed,
        }
    }

    /// The paper's default: CoV 0.2, moderate spatial correlation
    /// ([`PAPER_ROW_CORRELATION`]).
    pub fn paper_default(mean: f64, seed: u64) -> Self {
        Self::new(mean, 0.2, PAPER_ROW_CORRELATION, seed)
    }

    /// Mean endurance in writes.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Deterministically samples the endurance limit (in programming events)
    /// of cell `cell_idx` in row `row_addr`.
    ///
    /// The lifetime is `mean · (1 + cov · z)` clamped to at least one write,
    /// where `z` mixes a row-level and a cell-level standard normal draw
    /// according to the configured row correlation. Equal, by definition, to
    /// [`EnduranceModel::cell_limit_in_row`] over
    /// [`EnduranceModel::row_deviate`].
    pub fn cell_limit(&self, row_addr: u64, cell_idx: usize) -> u64 {
        self.cell_limit_in_row(row_addr, self.row_deviate(row_addr), cell_idx)
    }

    /// The row-level standard normal deviate shared by every cell of row
    /// `row_addr`. A row computes it once, when it is materialized, and
    /// passes it to [`EnduranceModel::cell_limit_in_row`] for each cell.
    pub fn row_deviate(&self, row_addr: u64) -> f64 {
        standard_normal(hash3(self.seed, row_addr, u64::MAX))
    }

    /// The endurance limit of cell `cell_idx` in row `row_addr`, given that
    /// row's deviate `row_z` from [`EnduranceModel::row_deviate`]. Only the
    /// cell-level draw is computed here, with the same floating-point
    /// operations in the same order as [`EnduranceModel::cell_limit`], so a
    /// row can sample each cell's limit on the cell's first programming and
    /// get the eager value bit for bit. The result is always at least 1.
    pub fn cell_limit_in_row(&self, row_addr: u64, row_z: f64, cell_idx: usize) -> u64 {
        let cell_z = standard_normal(hash3(self.seed, row_addr, cell_idx as u64));
        let rho = self.row_correlation;
        let z = rho.sqrt() * row_z + (1.0 - rho).sqrt() * cell_z;
        let lifetime = self.mean * (1.0 + self.cov * z);
        lifetime.max(1.0).round() as u64
    }
}

/// Mixes three 64-bit values into one hash.
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    SplitMix64::mix(a ^ SplitMix64::mix(b ^ SplitMix64::mix(c)))
}

/// Converts a 64-bit hash into a standard normal deviate via Box–Muller on
/// two sub-hashes.
fn standard_normal(h: u64) -> f64 {
    // Two uniforms in (0, 1) from the two halves of a remixed hash.
    let h2 = SplitMix64::mix(h);
    let u1 = ((h >> 11) as f64 + 1.0) / (2f64.powi(53) + 2.0);
    let u2 = ((h2 >> 11) as f64 + 1.0) / (2f64.powi(53) + 2.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_cell() {
        let m = EnduranceModel::paper_default(1e6, 7);
        assert_eq!(m.cell_limit(10, 3), m.cell_limit(10, 3));
        assert_ne!(m.cell_limit(10, 3), m.cell_limit(10, 4));
        assert_ne!(m.cell_limit(10, 3), m.cell_limit(11, 3));
        assert_eq!(m.mean(), 1e6);
    }

    #[test]
    fn distribution_statistics() {
        let m = EnduranceModel::new(1e6, 0.2, 0.0, 99);
        let n = 20_000usize;
        let samples: Vec<f64> = (0..n)
            .map(|i| m.cell_limit(i as u64 / 256, i % 256) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let std = var.sqrt();
        assert!((mean - 1e6).abs() / 1e6 < 0.02, "mean off: {mean}");
        assert!((std / mean - 0.2).abs() < 0.03, "cov off: {}", std / mean);
    }

    #[test]
    fn lifetimes_never_zero() {
        // Even with a huge CoV the clamp keeps lifetimes >= 1.
        let m = EnduranceModel::new(10.0, 0.9, 0.0, 1);
        for i in 0..5000 {
            assert!(m.cell_limit(i, 0) >= 1);
        }
    }

    #[test]
    fn row_correlation_clusters_weak_cells() {
        // With strong row correlation, the variance of row-mean lifetimes is
        // much larger than with independent cells.
        let correlated = EnduranceModel::new(1e6, 0.2, 0.8, 5);
        let independent = EnduranceModel::new(1e6, 0.2, 0.0, 5);
        let row_mean_var = |m: &EnduranceModel| {
            let rows = 200u64;
            let cells = 64usize;
            let means: Vec<f64> = (0..rows)
                .map(|r| (0..cells).map(|c| m.cell_limit(r, c) as f64).sum::<f64>() / cells as f64)
                .collect();
            let grand = means.iter().sum::<f64>() / rows as f64;
            means.iter().map(|x| (x - grand).powi(2)).sum::<f64>() / rows as f64
        };
        assert!(
            row_mean_var(&correlated) > 5.0 * row_mean_var(&independent),
            "row correlation should inflate between-row variance"
        );
    }

    #[test]
    fn standard_normal_is_roughly_standard() {
        let n = 50_000;
        let samples: Vec<f64> = (0..n)
            .map(|i| standard_normal(SplitMix64::mix(i)))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    #[should_panic(expected = "CoV")]
    fn rejects_bad_cov() {
        EnduranceModel::new(1e6, 1.5, 0.0, 0);
    }
}
