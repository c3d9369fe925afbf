//! The streaming replay's determinism contract and peak-memory bound.
//!
//! The acceptance criteria of the streaming frontend, pinned end-to-end:
//!
//! * streaming an already-materialized trace through N shards produces
//!   aggregate statistics **bit-identical** to the sequential materialized
//!   replay, for N ∈ {1, 8};
//! * streaming a *generated* workload with memory-backed fills is
//!   bit-identical across shard counts and to the sequential
//!   `WritePipeline::stream_replay` reference;
//! * the number of in-flight events never exceeds `shards ×
//!   queue_capacity`, so peak memory is independent of stream length;
//! * a source that panics mid-stream has its panic re-raised instead of
//!   hanging the replay, with every event it produced before committed.

use controller::{PipelineStats, WritePipeline};
use coset::cost::opt_saw_then_energy;
use coset::Vcc;
use engine::{EngineConfig, ShardedEngine, StreamSummary};
use pcm::{FaultMap, MemoryStats, PcmConfig};
use workload::{
    BenchmarkProfile, MemoryReader, Trace, TraceSource, ValueStyle, WorkloadSource, WriteBack,
};

fn pcm_config(seed: u64) -> PcmConfig {
    let mut cfg = PcmConfig::scaled(1 << 20, 1e3);
    cfg.seed = seed;
    cfg
}

fn trace(seed: u64) -> Trace {
    let profile = &workload::spec_like::quick_profiles()[0];
    workload::generate_scaled_trace(profile, 4096, 20_000, seed)
}

/// A profile whose hot set exceeds the 256 KiB L2, so lines keep cycling
/// out to memory and back — every such refetch is a memory-backed fill.
fn churn_profile() -> BenchmarkProfile {
    BenchmarkProfile::new(
        "churn",
        4 << 20,
        0.6,
        0.9,
        1 << 20,
        0.0,
        64,
        ValueStyle::Random,
        10.0,
        10.0,
    )
}

fn build_pipeline(seed: u64, crypt_seed: u64) -> WritePipeline {
    WritePipeline::new(pcm_config(seed), Box::new(Vcc::paper_mlc(64)))
        .with_cost(Box::new(opt_saw_then_energy()))
        .with_fault_map(FaultMap::paper_snapshot(seed))
        .with_crypt_seed(crypt_seed)
}

fn engine_with(shards: usize, seed: u64, crypt_seed: u64) -> ShardedEngine {
    ShardedEngine::from_factory(
        EngineConfig::default().with_shards(shards),
        crypt_seed,
        |_spec| build_pipeline(seed, crypt_seed),
    )
}

/// Acceptance criterion: streaming a materialized trace at shards {1, 8}
/// is bit-identical to the sequential materialized replay (stats compared
/// with exact equality, floating-point energy included).
#[test]
fn streamed_trace_replay_matches_sequential_materialized_at_1_and_8_shards() {
    let (seed, crypt_seed) = (0x57E4, 77);
    let t = trace(5);

    let mut sequential = build_pipeline(seed, crypt_seed);
    let seq_mem = sequential.replay_trace(&t);
    assert!(seq_mem.saw_cells > 0, "fault map must bite for a real test");

    for shards in [1usize, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        let summary = engine.stream_replay(&mut t.source());
        assert_eq!(summary.events, t.len() as u64);
        assert_eq!(summary.memory_fills, 0, "trace replays never fill");
        assert_eq!(
            engine.memory_stats(),
            seq_mem,
            "{shards}-shard streamed MemoryStats diverged"
        );
        assert_eq!(
            engine.stats(),
            *sequential.stats(),
            "{shards}-shard streamed PipelineStats diverged"
        );
    }
}

/// Streaming and materialized replay agree on the engine too (same shard
/// count, same trace, both routes through the shard pool).
#[test]
fn streamed_and_materialized_engine_replays_agree() {
    let (seed, crypt_seed) = (0xBEEF, 3);
    let t = trace(9);
    let mut materialized = engine_with(4, seed, crypt_seed);
    materialized.replay_trace(&t);
    let mut streamed = engine_with(4, seed, crypt_seed);
    streamed.stream_replay(&mut t.source());
    assert_eq!(streamed.memory_stats(), materialized.memory_stats());
    assert_eq!(streamed.stats(), materialized.stats());
}

fn streamed_generated(
    shards: usize,
    seed: u64,
    crypt_seed: u64,
    accesses: u64,
) -> (StreamSummary, MemoryStats, PipelineStats) {
    let mut engine = engine_with(shards, seed, crypt_seed);
    let mut source = WorkloadSource::new(churn_profile(), accesses, seed);
    let summary = engine.stream_replay(&mut source);
    (summary, engine.memory_stats(), engine.stats())
}

/// Memory-backed fills preserve the determinism contract: a generated
/// workload streamed at shards {1, 8} matches the sequential
/// `WritePipeline::stream_replay` reference bit for bit, fills included.
#[test]
fn streamed_generated_workload_with_fills_matches_sequential_at_1_and_8_shards() {
    let (seed, crypt_seed) = (0xF111, 21);
    let accesses = 20_000;

    let mut sequential = build_pipeline(seed, crypt_seed);
    let mut seq_source = WorkloadSource::new(churn_profile(), accesses, seed);
    let seq_mem = sequential.stream_replay(&mut seq_source);
    assert!(
        seq_source.fills_from_memory() > 0,
        "the churn workload must actually exercise memory-backed fills"
    );

    for shards in [1usize, 8] {
        let (summary, mem, pipe) = streamed_generated(shards, seed, crypt_seed, accesses);
        assert_eq!(
            summary.memory_fills,
            seq_source.fills_from_memory(),
            "{shards}-shard run served a different fill count"
        );
        assert_eq!(mem, seq_mem, "{shards}-shard streamed MemoryStats diverged");
        assert_eq!(
            pipe,
            *sequential.stats(),
            "{shards}-shard streamed PipelineStats diverged"
        );
    }
}

/// The backpressure bound: with a deliberately tiny queue, the replay still
/// completes and never holds more than `shards × capacity` events in
/// flight — the structural guarantee that peak memory does not scale with
/// stream length.
#[test]
fn in_flight_events_respect_the_queue_bound() {
    let (seed, crypt_seed) = (0x0B0B, 11);
    let t = trace(13);
    for capacity in [1usize, 8, 64] {
        let mut engine = engine_with(4, seed, crypt_seed);
        let summary = engine.stream_replay_with(&mut t.source(), capacity);
        assert_eq!(summary.events, t.len() as u64);
        assert_eq!(summary.queue_capacity, capacity);
        assert!(
            summary.max_in_flight <= 4 * capacity,
            "{} in flight exceeds 4 shards x {capacity}",
            summary.max_in_flight
        );
    }
    // And the tiny-queue run still produced the sequential stats.
    let mut tight = engine_with(4, seed, crypt_seed);
    tight.stream_replay_with(&mut t.source(), 1);
    let mut sequential = build_pipeline(seed, crypt_seed);
    sequential.replay_trace(&t);
    assert_eq!(tight.memory_stats(), *sequential.memory_stats());
}

/// The timing extension of the determinism contract: event-driven latency
/// histograms are bit-identical across shard counts {1, 2, 8} — all of
/// which divide the default 8-bank interleave, so every bank sees the same
/// command subsequence — and equal to the sequential
/// `WritePipeline::stream_replay` reference, fills included.
#[test]
fn timing_stats_match_sequential_at_1_2_8_shards() {
    let (seed, crypt_seed) = (0x71A1, 29);
    let accesses = 12_000;

    let mut sequential = build_pipeline(seed, crypt_seed);
    let mut seq_source = WorkloadSource::new(churn_profile(), accesses, seed);
    sequential.stream_replay(&mut seq_source);
    let seq_timing = *sequential.timing_stats();
    assert!(seq_timing.writes.count() > 0, "reference must time writes");
    assert!(
        seq_timing.reads.count() > 0,
        "churn fills must time reads too"
    );

    let mut summaries = Vec::new();
    for shards in [1usize, 2, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        let mut source = WorkloadSource::new(churn_profile(), accesses, seed);
        let summary = engine.stream_replay(&mut source);
        assert_eq!(
            engine.timing_stats(),
            seq_timing,
            "{shards}-shard timing stats diverged from sequential"
        );
        summaries.push((
            summary.write_p50_cycles,
            summary.write_p99_cycles,
            summary.write_p999_cycles,
        ));
    }
    assert!(
        summaries.windows(2).all(|w| w[0] == w[1]),
        "summary percentiles must agree across shard counts: {summaries:?}"
    );
    let (p50, p99, p999) = summaries[0];
    assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
}

/// Repeated streaming calls accumulate state exactly like repeated
/// materialized replays (shard state persists across calls).
#[test]
fn stream_replay_accumulates_across_calls() {
    let (seed, crypt_seed) = (0xACC0, 17);
    let t = trace(19);
    let mut engine = engine_with(2, seed, crypt_seed);
    engine.stream_replay(&mut t.source());
    engine.stream_replay(&mut t.source());
    assert_eq!(engine.memory_stats().row_writes, 2 * t.len() as u64);

    let mut materialized = engine_with(2, seed, crypt_seed);
    materialized.replay_trace(&t);
    materialized.replay_trace(&t);
    assert_eq!(engine.memory_stats(), materialized.memory_stats());
}

/// Forwards the first `limit` events of `inner`, then either ends the
/// stream or panics.
struct CutAfter<S> {
    inner: S,
    limit: u64,
    emitted: u64,
    panic: bool,
}

impl<S: TraceSource> TraceSource for CutAfter<S> {
    fn benchmark(&self) -> &str {
        self.inner.benchmark()
    }

    fn next_event(&mut self, mem: &mut dyn MemoryReader) -> Option<WriteBack> {
        if self.emitted == self.limit {
            assert!(!self.panic, "source failed after {} events", self.limit);
            return None;
        }
        self.emitted += 1;
        self.inner.next_event(mem)
    }
}

/// A source that panics mid-stream: the producer's lane closer drains the
/// workers, the scope joins, and the source's panic reaches the caller
/// instead of hanging the replay. Every event produced before the panic is
/// committed, fills included, so the quiesced engine equals a sequential
/// replay of exactly those events.
#[test]
fn panicking_source_is_reraised_after_the_workers_drain() {
    let (seed, crypt_seed) = (0xFA11, 41);
    let (accesses, limit) = (12_000, 2_000);
    let cut = |panic| CutAfter {
        inner: WorkloadSource::new(churn_profile(), accesses, seed),
        limit,
        emitted: 0,
        panic,
    };

    let mut sequential = build_pipeline(seed, crypt_seed);
    let mut prefix = cut(false);
    sequential.stream_replay(&mut prefix);
    assert_eq!(prefix.emitted, limit, "the workload must outlast the cut");

    for shards in [1usize, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        let mut source = cut(true);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.stream_replay_with(&mut source, 16)
        }));
        let payload = outcome.expect_err("the source's panic must propagate");
        assert_eq!(
            engine::panic_message(payload),
            format!("source failed after {limit} events")
        );
        assert!(engine.quarantined_shards().is_empty(), "no shard failed");
        assert_eq!(
            engine.stats(),
            *sequential.stats(),
            "{shards}-shard PipelineStats diverged from the sequential prefix"
        );
        assert_eq!(
            engine.memory_stats(),
            *sequential.memory_stats(),
            "{shards}-shard MemoryStats diverged from the sequential prefix"
        );
    }
}
