//! The layer replay: one sequential pipeline's write-backs pushed through
//! the layers again with a direct, timed call per layer, so the pcm and
//! memcrypt calls the pipeline makes privately get spans of their own.

use std::hint::black_box;

use memcrypt::{simulation_encryption, CounterTable, CtrEngine};
use pcm::{LineWriteScratch, PcmMemory};
use protect::CorrectionScheme;

use crate::span::{span, span_self, Layer};
use crate::traced::{TracedCorrection, TracedEncoder};
use crate::workloads::Recording;

/// What one layer replay measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerFigures {
    /// Writes that materialised their row, and their summed
    /// `write_line_with` self time in nanoseconds.
    pub fresh: (u64, u64),
    /// Writes to a row already materialised, and their summed self time.
    pub warm: (u64, u64),
    /// Whether the replay reproduced the pipeline's array statistics,
    /// uncorrectable-line count and materialised rows exactly.
    pub matches: bool,
}

impl LayerFigures {
    /// Adds another replay's figures.
    pub fn merge(&mut self, other: &LayerFigures) {
        self.fresh.0 += other.fresh.0;
        self.fresh.1 += other.fresh.1;
        self.warm.0 += other.warm.0;
        self.warm.1 += other.warm.1;
        self.matches &= other.matches;
    }
}

/// Replays `rec` through the pipeline's own encryption
/// (`MemoryEncryption::encrypt_writeback`), `PcmMemory::write_line_with`
/// and the correction judgement, as `WritePipeline::write_back` calls them
/// (no fault plan, no recovery), then encrypts the same lines with the AES
/// `CtrEngine` on its own.
pub fn layer_replay(rec: &Recording) -> LayerFigures {
    let mut memory = PcmMemory::new(rec.config.clone());
    let encoder = TracedEncoder(rec.unit.technique.encoder(rec.unit.encoder_seed));
    let correction = TracedCorrection(rec.unit.technique.correction());
    let mut encryption = simulation_encryption(rec.unit.crypt_seed);
    let cost = rec.unit.cost();
    let mut scratch = LineWriteScratch::new();
    let mut saw = Vec::new();
    let mut figures = LayerFigures::default();
    let mut uncorrectable = 0u64;
    for wb in &rec.writes {
        let (ciphertext, _) = span(Layer::SimEncrypt, || {
            encryption.encrypt_writeback(wb.line_addr, &wb.data)
        });
        let row = memory.config().row_of_byte_addr(wb.line_addr);
        let fresh = memory.row(row).is_none();
        let (outcome, self_ns) = span_self(Layer::PcmWrite, || {
            memory.write_line_with(row, &ciphertext, &encoder, cost.as_ref(), &mut scratch)
        });
        let bucket = if fresh {
            &mut figures.fresh
        } else {
            &mut figures.warm
        };
        bucket.0 += 1;
        bucket.1 += self_ns;
        outcome.saw_per_word_into(&mut saw);
        if !correction.can_correct(&saw) {
            uncorrectable += 1;
        }
    }
    figures.matches = *memory.stats() == rec.stats.memory
        && uncorrectable == rec.stats.pipeline.uncorrectable_lines
        && memory.rows_touched() == rec.rows_touched;

    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&rec.unit.crypt_seed.to_le_bytes());
    let ctr = CtrEngine::new(key);
    let mut counters = CounterTable::new();
    for wb in &rec.writes {
        let counter = counters.next_for_write(wb.line_addr);
        black_box(span(Layer::CtrEncrypt, || {
            ctr.encrypt_line(wb.line_addr, counter, black_box(&wb.data))
        }));
    }
    figures
}
