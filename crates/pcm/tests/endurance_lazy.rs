//! Pins lazily sampled endurance limits to the eager definition.
//!
//! A row computes only its shared deviate when it is materialized and
//! samples each cell's limit the first time the cell is programmed. These
//! checks hold that to [`EnduranceModel::cell_limit`], the eager per-cell
//! definition:
//!
//! * the split sampler (`row_deviate` once per row, then
//!   `cell_limit_in_row` per cell) returns the eager value bit for bit;
//! * through both the word-parallel commit (`write_line_with`) and the
//!   per-cell scalar oracle (`write_line_scalar`), on low-endurance MLC and
//!   SLC memories with event-counted and energy-weighted wear, every cell
//!   dies on exactly the write where its wear first reaches its eager
//!   limit, and every cell reports its eager limit whether or not it has
//!   been sampled yet.

use coset::cost::{CostFunction, WriteEnergy};
use coset::symbol::CellKind;
use coset::{Encoder, Fnw, Unencoded, Vcc};
use pcm::endurance::PAPER_ROW_CORRELATION;
use pcm::{EnduranceModel, LineWriteScratch, PcmConfig, PcmMemory};
use proptest::prelude::*;

/// Per-cell `(wear, stuck)` of a row, all fresh if it is not materialized.
fn cell_state(mem: &PcmMemory, addr: u64, cells: usize) -> Vec<(u64, bool)> {
    match mem.row(addr) {
        Some(row) => (0..cells).map(|c| (row.wear(c), row.is_stuck(c))).collect(),
        None => vec![(0, false); cells],
    }
}

/// Replays `lines` round-robin over `rows` rows through one commit path and
/// checks every cell's death and reported limit against `eager`.
fn assert_deaths_at_eager_limits(
    cfg: &PcmConfig,
    eager: &EnduranceModel,
    enc: &dyn Encoder,
    cost: &dyn CostFunction,
    lines: &[[u64; 8]],
    rows: u64,
    scalar: bool,
) {
    let mut mem = PcmMemory::new(cfg.clone());
    let mut scratch = LineWriteScratch::new();
    let cells = cfg.cells_per_row();
    for (i, line) in lines.iter().enumerate() {
        let addr = i as u64 % rows;
        let before = cell_state(&mem, addr, cells);
        let outcome = if scalar {
            mem.write_line_scalar(addr, line, enc, cost)
        } else {
            mem.write_line_with(addr, line, enc, cost, &mut scratch)
        };
        let after = cell_state(&mem, addr, cells);
        let mut crossed = 0;
        for c in 0..cells {
            let limit = eager.cell_limit(addr, c);
            let ((wear0, stuck0), (wear1, stuck1)) = (before[c], after[c]);
            let dies = !stuck0 && wear0 < limit && wear1 >= limit;
            crossed += u32::from(dies);
            assert_eq!(
                stuck1,
                stuck0 || dies,
                "write {i}, row {addr}, cell {c}: wear {wear0}->{wear1}, limit {limit}"
            );
        }
        assert_eq!(outcome.total().new_dead_cells, crossed, "write {i}");
    }
    assert!(mem.stats().dead_cells > 0, "the stream should kill cells");
    for addr in 0..rows {
        let row = mem.row(addr).expect("every row was written");
        for c in 0..cells {
            assert_eq!(row.limit(c, eager, addr), eager.cell_limit(addr, c));
        }
    }
}

/// Runs the death check through both commit paths.
fn check_both_paths(
    kind: CellKind,
    energy_weighted: bool,
    mean: f64,
    cov: f64,
    seed: u64,
    enc: &dyn Encoder,
    lines: &[[u64; 8]],
) {
    let mut cfg = PcmConfig::scaled(64 * 1024, mean);
    cfg.cell_kind = kind;
    cfg.energy_weighted_wear = energy_weighted;
    cfg.endurance_cov = cov;
    cfg.seed = seed;
    let eager = EnduranceModel::new(mean, cov, PAPER_ROW_CORRELATION, seed);
    let cost = match kind {
        CellKind::Mlc => WriteEnergy::mlc(),
        CellKind::Slc => WriteEnergy::slc(),
    };
    for scalar in [false, true] {
        assert_deaths_at_eager_limits(&cfg, &eager, enc, &cost, lines, 2, scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One row deviate serves every cell of its row, and the split sampler
    /// equals the eager one bit for bit.
    #[test]
    fn split_sampler_matches_eager_cell_limit(
        seed in any::<u64>(),
        row in any::<u64>(),
        cells in prop::collection::vec(0usize..4096, 1..16),
        mean in 1.0f64..1e9,
        cov in 0.0f64..1.0,
        rho in 0.0f64..1.0,
    ) {
        let m = EnduranceModel::new(mean, cov, rho, seed);
        let row_z = m.row_deviate(row);
        for c in cells {
            prop_assert_eq!(m.cell_limit_in_row(row, row_z, c), m.cell_limit(row, c));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MLC cells across encoders with auxiliary widths 0, 4 and 8.
    #[test]
    fn mlc_cells_die_at_their_eager_limits(
        seed in any::<u64>(),
        energy_weighted in any::<bool>(),
        mean in 4.0f64..20.0,
        cov in 0.0f64..0.5,
        enc_idx in 0usize..3,
        lines in prop::collection::vec(any::<[u64; 8]>(), 80..120),
    ) {
        let enc: Box<dyn Encoder> = match enc_idx {
            0 => Box::new(Unencoded::new(64)),
            1 => Box::new(Fnw::with_sub_block(64, 16)),
            _ => Box::new(Vcc::paper_mlc(64)),
        };
        check_both_paths(CellKind::Mlc, energy_weighted, mean, cov, seed, enc.as_ref(), &lines);
    }

    /// SLC cells, where every bit is its own cell.
    #[test]
    fn slc_cells_die_at_their_eager_limits(
        seed in any::<u64>(),
        energy_weighted in any::<bool>(),
        mean in 4.0f64..20.0,
        cov in 0.0f64..0.5,
        fnw in any::<bool>(),
        lines in prop::collection::vec(any::<[u64; 8]>(), 80..120),
    ) {
        let enc: Box<dyn Encoder> = if fnw {
            Box::new(Fnw::with_sub_block(64, 16))
        } else {
            Box::new(Unencoded::new(64))
        };
        check_both_paths(CellKind::Slc, energy_weighted, mean, cov, seed, enc.as_ref(), &lines);
    }
}
