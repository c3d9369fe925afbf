//! Timing decorators: each forwards every method to the object it wraps and
//! records a [`span`] around the calls the traced run measures. They change
//! no result, which the traced run's output check confirms.

use coset::{Block, CostFunction, EncodeScratch, Encoded, Encoder, WriteContext};
use protect::CorrectionScheme;
use workload::{LineData, MemoryReader, TraceSource, WriteBack};

use crate::span::{span, Layer};

/// A [`coset::Encoder`] whose encode and decode calls are spans.
pub struct TracedEncoder(pub Box<dyn Encoder>);

impl Encoder for TracedEncoder {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn block_bits(&self) -> usize {
        self.0.block_bits()
    }

    fn aux_bits(&self) -> u32 {
        self.0.aux_bits()
    }

    fn encode(&self, data: &Block, ctx: &WriteContext, cost: &dyn CostFunction) -> Encoded {
        span(Layer::EncodeWord, || self.0.encode(data, ctx, cost))
    }

    fn encode_into(
        &self,
        data: &Block,
        ctx: &WriteContext,
        cost: &dyn CostFunction,
        scratch: &mut EncodeScratch,
        out: &mut Encoded,
    ) {
        span(Layer::EncodeWord, || {
            self.0.encode_into(data, ctx, cost, scratch, out)
        })
    }

    fn encode_line(
        &self,
        line: &[u64],
        ctxs: &[WriteContext],
        cost: &dyn CostFunction,
        scratch: &mut EncodeScratch,
        out: &mut Vec<Encoded>,
    ) {
        span(Layer::EncodeLine, || {
            self.0.encode_line(line, ctxs, cost, scratch, out)
        })
    }

    fn decode(&self, codeword: &Block, aux: u64) -> Block {
        span(Layer::Decode, || self.0.decode(codeword, aux))
    }
}

/// A [`protect::CorrectionScheme`] whose judgement is a span.
pub struct TracedCorrection(pub Box<dyn CorrectionScheme>);

impl CorrectionScheme for TracedCorrection {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn can_correct(&self, saw_per_word: &[u32]) -> bool {
        span(Layer::Judge, || self.0.can_correct(saw_per_word))
    }

    fn overhead_bits_per_word(&self) -> u32 {
        self.0.overhead_bits_per_word()
    }
}

/// A [`workload::TraceSource`] whose `next_event` is a span, and which hands
/// the wrapped source a [`TracedReader`] around the reader it receives.
pub struct TracedSource(pub Box<dyn TraceSource + Send>);

impl TraceSource for TracedSource {
    fn benchmark(&self) -> &str {
        self.0.benchmark()
    }

    fn next_event(&mut self, mem: &mut dyn MemoryReader) -> Option<WriteBack> {
        let mut reader = TracedReader(mem);
        span(Layer::NextEvent, || self.0.next_event(&mut reader))
    }

    fn size_hint(&self) -> (u64, Option<u64>) {
        self.0.size_hint()
    }

    fn accesses(&self) -> u64 {
        self.0.accesses()
    }
}

/// A [`workload::MemoryReader`] whose fills are spans: the round trip the
/// source waits for.
pub struct TracedReader<'a>(pub &'a mut dyn MemoryReader);

impl MemoryReader for TracedReader<'_> {
    fn read_line(&mut self, line_addr: u64) -> Option<LineData> {
        span(Layer::Fill, || self.0.read_line(line_addr))
    }
}
