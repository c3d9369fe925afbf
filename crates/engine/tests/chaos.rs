//! Chaos suite: the fault-injection determinism contract at the engine
//! level, pinned end-to-end.
//!
//! * **Device faults** (stuck bursts, row death, forced uncorrectable) plus
//!   bounded recovery (retry, retirement) are decided per `(row, ordinal)`,
//!   so a seeded plan replays **bit-identically** across shard counts
//!   {1, 2, 8} and against the sequential pipeline — stats, timing
//!   histograms and fault logs all compared with exact equality.
//! * **Process faults** (injected worker panics) quarantine one shard
//!   without killing the process or perturbing the other shards, under the
//!   accounting invariant `admitted == executed + discarded` — also when
//!   the panicking write is run by a fill on the producer's thread.
//! * An **empty plan** leaves every statistic bit-identical to a build with
//!   no injector attached at all (the golden-safety guarantee).

use controller::{RecoveryPolicy, WritePipeline};
use coset::cost::opt_saw_then_energy;
use coset::Vcc;
use engine::{EngineConfig, ShardedEngine};
use faultsim::{FaultLog, FaultPlan};
use pcm::PcmConfig;
use proptest::prelude::*;
use workload::{
    BenchmarkProfile, LineData, MemoryReader, Trace, TraceSource, ValueStyle, WorkloadSource,
    WriteBack,
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

fn build_pipeline(seed: u64) -> WritePipeline {
    WritePipeline::new(pcm_config(seed), Box::new(Vcc::paper_mlc(64)))
        .with_cost(Box::new(opt_saw_then_energy()))
        .with_correction(Box::new(protect::EcpScheme::ecp6_iso_area()))
}

fn engine_with(shards: usize, seed: u64, crypt_seed: u64) -> ShardedEngine {
    ShardedEngine::from_factory(
        EngineConfig::default().with_shards(shards),
        crypt_seed,
        |_spec| build_pipeline(seed),
    )
}

/// Everything the contract pins, bundled for exact comparison.
fn fingerprint(engine: &ShardedEngine) -> (String, FaultLog, usize) {
    (
        format!(
            "{:?}|{:?}|{:?}",
            engine.stats(),
            engine.memory_stats(),
            engine.timing_stats()
        ),
        engine.fault_log(),
        engine.retired_row_count(),
    )
}

/// Acceptance criterion: a seeded device-fault plan replays bit-identically
/// at shards {1, 2, 8} — same injected faults, same recovery actions, same
/// stats and timing histograms, no matter how the trace is partitioned.
#[test]
fn seeded_device_faults_replay_bit_identically_at_1_2_8_shards() {
    let (seed, crypt_seed) = (0xFA17, 99);
    let t = trace(11);
    let plan = FaultPlan::chaos(0xC0FFEE).with_read_timeouts(40_000);

    let mut reference = engine_with(1, seed, crypt_seed);
    reference.inject_faults(&plan, RecoveryPolicy::standard());
    reference.replay_trace(&t);
    let expected = fingerprint(&reference);
    let log = expected.1;
    assert!(log.stuck_bursts > 0, "plan must actually inject bursts");
    assert!(log.rows_killed > 0, "plan must actually kill rows");
    assert!(
        log.retry_attempts > 0,
        "recovery must actually retry: {log:?}"
    );
    assert!(log.retired_rows > 0, "recovery must actually retire rows");

    for shards in [2usize, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        engine.inject_faults(&plan, RecoveryPolicy::standard());
        engine.replay_trace(&t);
        assert_eq!(fingerprint(&engine), expected, "shards={shards} diverged");
        assert!(!engine.is_degraded(), "device faults never quarantine");
    }
}

/// Golden safety: an empty plan (and a disabled recovery policy) leaves the
/// engine bit-identical to one with no injector attached at all.
#[test]
fn empty_plan_is_bit_identical_to_no_injection() {
    let (seed, crypt_seed) = (0x90CD, 3);
    let t = trace(4);

    let mut plain = engine_with(8, seed, crypt_seed);
    plain.replay_trace(&t);

    let mut injected = engine_with(8, seed, crypt_seed);
    injected.inject_faults(&FaultPlan::new(0xDEAD), RecoveryPolicy::none());
    injected.replay_trace(&t);

    assert_eq!(fingerprint(&injected), fingerprint(&plain));
    assert!(injected.fault_log().is_empty());
}

/// Process-fault contract: an injected worker panic never aborts the
/// process; the failing shard is quarantined, every other shard finishes,
/// and `admitted == executed + discarded` holds exactly.
#[test]
fn injected_worker_panic_quarantines_one_shard_and_loses_no_accounting() {
    let (seed, crypt_seed) = (0xBAD5, 21);
    let t = trace(9);
    let cfg = pcm_config(seed);
    let victim_row = cfg.row_of_byte_addr(t.iter().next().unwrap().line_addr);
    let plan = FaultPlan::new(1).with_worker_panic(victim_row, 0);

    for shards in [1usize, 2, 8] {
        for threads in [1usize, 4] {
            let mut engine = ShardedEngine::from_factory(
                EngineConfig::default()
                    .with_shards(shards)
                    .with_threads(threads),
                crypt_seed,
                |_spec| build_pipeline(seed),
            );
            engine.inject_faults(&plan, RecoveryPolicy::none());
            engine.replay_trace(&t);

            let victim_shard = (victim_row % shards as u64) as usize;
            assert!(engine.is_degraded(), "shards={shards}");
            assert_eq!(engine.quarantined_shards(), vec![victim_shard]);
            let message = engine
                .shard_failure(victim_shard)
                .expect("quarantined shard keeps its panic message");
            assert!(
                message.contains("injected worker panic"),
                "unexpected failure message: {message}"
            );
            assert_eq!(
                engine.stats().lines_written + engine.discarded_events(),
                t.len() as u64,
                "admitted == executed + discarded (shards={shards}, threads={threads})"
            );

            // A later replay skips the quarantined shard up front: its whole
            // partition is discarded, the healthy shards keep serving.
            let before = engine.stats().lines_written;
            engine.replay_trace(&t);
            assert!(engine.stats().lines_written > before || shards == 1);
            assert_eq!(
                engine.stats().lines_written + engine.discarded_events(),
                2 * t.len() as u64,
                "accounting holds across replays"
            );
        }
    }
}

/// Streaming variant of the process-fault contract: a mid-stream worker
/// death quarantines the shard, the producer never blocks, the stream
/// drains to completion and the accounting invariant holds.
#[test]
fn stream_replay_survives_mid_stream_worker_death() {
    let (seed, crypt_seed) = (0x51DE, 17);
    let t = trace(13);
    let cfg = pcm_config(seed);
    let victim_row = cfg.row_of_byte_addr(t.iter().nth(t.len() / 2).unwrap().line_addr);
    let plan = FaultPlan::new(2).with_worker_panic(victim_row, 0);

    for shards in [2usize, 8] {
        let mut engine = engine_with(shards, seed, crypt_seed);
        engine.inject_faults(&plan, RecoveryPolicy::none());
        let summary = engine.stream_replay(&mut t.source());

        assert_eq!(summary.events, t.len() as u64, "every event was admitted");
        assert!(summary.shards_quarantined >= 1);
        assert!(summary.events_discarded > 0);
        assert_eq!(
            engine.stats().lines_written + summary.events_discarded,
            t.len() as u64,
            "admitted == executed + discarded (shards={shards})"
        );
        assert_eq!(
            engine.quarantined_shards(),
            vec![(victim_row % shards as u64) as usize]
        );
    }
}

/// One step of a streamed workload: a write-back, or a cache-miss fill
/// with the answer it got.
enum Step {
    Write(WriteBack),
    Fill(u64, Option<LineData>),
}

/// A [`MemoryReader`] that logs every fill and its answer.
struct Logged<'a, M: MemoryReader + ?Sized> {
    memory: &'a mut M,
    steps: &'a mut Vec<Step>,
}

impl<M: MemoryReader + ?Sized> MemoryReader for Logged<'_, M> {
    fn read_line(&mut self, line_addr: u64) -> Option<LineData> {
        let answer = self.memory.read_line(line_addr);
        self.steps.push(Step::Fill(line_addr, answer));
        answer
    }
}

/// A [`TraceSource`] whose fills are logged as they are answered.
struct FillSpy<S> {
    inner: S,
    steps: Vec<Step>,
}

impl<S: TraceSource> TraceSource for FillSpy<S> {
    fn benchmark(&self) -> &str {
        self.inner.benchmark()
    }

    fn next_event(&mut self, mem: &mut dyn MemoryReader) -> Option<WriteBack> {
        let mut logged = Logged {
            memory: mem,
            steps: &mut self.steps,
        };
        self.inner.next_event(&mut logged)
    }
}

fn fills(steps: &[Step]) -> Vec<Option<LineData>> {
    steps
        .iter()
        .filter_map(|step| match step {
            Step::Fill(_, answer) => Some(*answer),
            Step::Write(_) => None,
        })
        .collect()
}

/// A worker panic scheduled on a write that directly precedes a fill to
/// the same row — so the fill, run on the producer's thread, drains and
/// runs the panicking write itself whenever the worker has not popped it
/// yet. Either way the quarantine stays on that one shard, the fill
/// answers `None`, and `admitted == executed + discarded` holds exactly.
#[test]
fn fault_in_a_write_drained_by_a_fill_stays_confined() {
    let (seed, crypt_seed, accesses) = (0xF11D, 23, 20_000);
    let cfg = pcm_config(seed);
    // A hot set beyond the 256 KiB L2: lines keep cycling out to memory
    // and back, so fills keep finding written lines.
    let churn = BenchmarkProfile::new(
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
    );
    let source = || WorkloadSource::new(churn.clone(), accesses, seed);

    // The stream as a sequential replay sees it.
    let mut sequential = build_pipeline(seed).with_crypt_seed(crypt_seed);
    let mut steps = Vec::new();
    let mut stream = source();
    loop {
        let mut logged = Logged {
            memory: &mut sequential,
            steps: &mut steps,
        };
        let Some(wb) = stream.next_event(&mut logged) else {
            break;
        };
        sequential.write_back(&wb);
        steps.push(Step::Write(wb));
    }

    let expected = fills(&steps);

    // The first written-line fill right behind a write to the same shard;
    // the panic fires on that write (its ordinal among its row's writes).
    let victim = |shards: u64| {
        let shard = |addr: u64| cfg.row_of_byte_addr(addr) % shards;
        steps.windows(2).enumerate().find_map(|(i, pair)| match pair {
            [Step::Write(wb), Step::Fill(addr, Some(_))] if shard(wb.line_addr) == shard(*addr) => {
                let row = cfg.row_of_byte_addr(wb.line_addr);
                let earlier = steps[..i].iter().filter(
                    |step| matches!(step, Step::Write(w) if cfg.row_of_byte_addr(w.line_addr) == row),
                );
                Some((row, earlier.count() as u64, fills(&steps[..=i]).len()))
            }
            _ => None,
        })
    };

    for shards in [1usize, 2, 8] {
        let (victim_row, ordinal, fill) =
            victim(shards as u64).expect("some fill directly follows a write to its shard");
        let plan = FaultPlan::new(3).with_worker_panic(victim_row, ordinal);
        let mut engine = engine_with(shards, seed, crypt_seed);
        engine.inject_faults(&plan, RecoveryPolicy::none());
        let mut spy = FillSpy {
            inner: source(),
            steps: Vec::new(),
        };
        let summary = engine.stream_replay(&mut spy);

        let answers = fills(&spy.steps);
        assert_eq!(answers[..fill], expected[..fill], "shards={shards}");
        assert_eq!(
            answers[fill], None,
            "the fill behind the fault (shards={shards})"
        );
        assert_eq!(
            engine.quarantined_shards(),
            vec![(victim_row % shards as u64) as usize]
        );
        assert!(engine
            .shard_failure((victim_row % shards as u64) as usize)
            .is_some_and(|message| message.contains("injected worker panic")));
        assert_eq!(
            engine.stats().lines_written + summary.events_discarded,
            summary.events,
            "admitted == executed + discarded (shards={shards})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small device-fault plans replay bit-identically across shard
    /// counts, with and without recovery.
    #[test]
    fn random_plans_are_shard_invariant(
        plan_seed in 0u64..1_000,
        stuck in 0u64..80_000,
        death in 0u64..10_000,
        uncorr in 0u64..50_000,
        recovery_choice in 0u8..2,
    ) {
        let (seed, crypt_seed) = (0x7E57, 5);
        let t = trace(6);
        let plan = FaultPlan::new(plan_seed).with_rates(stuck, 25_000, death, uncorr);
        let recovery = if recovery_choice == 1 {
            RecoveryPolicy::standard()
        } else {
            RecoveryPolicy::none()
        };

        let mut reference = engine_with(1, seed, crypt_seed);
        reference.inject_faults(&plan, recovery);
        reference.replay_trace(&t);
        let expected = fingerprint(&reference);

        for shards in [2usize, 8] {
            let mut engine = engine_with(shards, seed, crypt_seed);
            engine.inject_faults(&plan, recovery);
            engine.replay_trace(&t);
            prop_assert_eq!(fingerprint(&engine), expected.clone(), "shards={}", shards);
        }
    }
}
