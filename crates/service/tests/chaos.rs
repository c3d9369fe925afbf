//! Service chaos suite: graceful degradation under injected faults.
//!
//! * A mid-stream worker death quarantines one (shard, tenant) cell; the
//!   run still drains, no admitted event is lost from the accounting
//!   (`enqueued == lines_written + discarded`), and the *other* tenants'
//!   statistics stay bit-identical to an uninjected run. That holds too
//!   when the panicking write is one the tenant's own fill runs, on the
//!   producer's thread.
//! * Seeded device-fault plans replay bit-identically across shard counts
//!   at the service level, per tenant.
//! * An injected stream error stops a tenant's admission after exactly N
//!   events and drains gracefully.
//! * An empty plan leaves every tenant bit-identical to a service with no
//!   injection armed at all.

use controller::{RecoveryPolicy, WritePipeline};
use coset::cost::WriteEnergy;
use coset::{Fnw, Unencoded, Vcc};
use faultsim::FaultPlan;
use pcm::{FaultMap, PcmConfig};
use service::{tenant_seed, MemoryService, ServiceConfig, ServiceReport, TenantSpec};
use workload::{
    spec_like, BenchmarkProfile, LineData, MemoryReader, NoMemory, TraceSource, ValueStyle,
    WorkloadSource, WriteBack,
};

fn pcm_config() -> PcmConfig {
    let mut cfg = PcmConfig::scaled(1 << 20, 1e3);
    cfg.seed = 0xA11CE;
    cfg
}

fn build_technique(technique: &str, crypt_seed: u64) -> WritePipeline {
    let p = match technique {
        "unencoded" => WritePipeline::new(pcm_config(), Box::new(Unencoded::new(64))),
        "fnw16" => WritePipeline::new(pcm_config(), Box::new(Fnw::with_sub_block(64, 16))),
        "vcc64" => WritePipeline::new(pcm_config(), Box::new(Vcc::paper_mlc(64)))
            .with_correction(Box::new(protect::EcpScheme::ecp6_iso_area())),
        other => panic!("unknown test technique {other:?}"),
    };
    p.with_cost(Box::new(WriteEnergy::mlc()))
        .with_fault_map(FaultMap::paper_snapshot(crypt_seed))
}

fn technique_for(t: usize) -> &'static str {
    ["vcc64", "fnw16", "unencoded"][t % 3]
}

fn tenant_source(t: usize, accesses: u64, seed: u64) -> WorkloadSource {
    let profile = spec_like::tenant_mix(t + 1)[t].scaled_down(4096);
    WorkloadSource::new(profile, accesses, seed ^ (t as u64).wrapping_mul(0x9E37))
}

const TENANTS: usize = 3;
const ACCESSES: u64 = 2_000;
const BASE_SEED: u64 = 0xBE2C;
const BATCH: usize = 4;

fn build_service(shards: usize) -> MemoryService {
    let specs: Vec<TenantSpec> = (0..TENANTS)
        .map(|t| TenantSpec::new(&format!("t{t}"), technique_for(t)))
        .collect();
    let config = ServiceConfig::default()
        .with_shards(shards)
        .with_queue_capacity(16)
        .with_batch(BATCH)
        .with_base_seed(BASE_SEED);
    MemoryService::build(config, &specs, |ctx| {
        build_technique(ctx.technique, ctx.crypt_seed)
    })
}

fn sources() -> Vec<Box<dyn TraceSource + Send>> {
    (0..TENANTS)
        .map(|t| Box::new(tenant_source(t, ACCESSES, BASE_SEED)) as Box<dyn TraceSource + Send>)
        .collect()
}

/// Everything the per-tenant determinism contract pins, as one comparable
/// string (Debug formatting is exact for the all-integer/exact-float
/// stats).
fn tenant_key(report: &ServiceReport, t: usize) -> String {
    let tenant = &report.tenants[t];
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}",
        tenant.pipeline, tenant.memory, tenant.timing, tenant.faults, tenant.enqueued
    )
}

/// The row the victim tenant's first admitted write lands on (fills of
/// never-written lines return `None` under both `NoMemory` and the real
/// service, so the first write-back is identical).
fn first_row_of_tenant(t: usize) -> u64 {
    let mut source = tenant_source(t, ACCESSES, BASE_SEED);
    let wb = source
        .next_event(&mut NoMemory)
        .expect("tenant stream is non-empty");
    pcm_config().row_of_byte_addr(wb.line_addr)
}

/// Tentpole criterion: a worker panic mid-run quarantines only the victim
/// cell; the service drains, accounting balances, healthy tenants are
/// bit-identical to an uninjected run, and the process never aborts.
#[test]
fn worker_death_drains_gracefully_and_spares_healthy_tenants() {
    let shards = 4;
    let victim = 1usize;

    let mut baseline_service = build_service(shards);
    let baseline = baseline_service.run(sources());
    assert!(!baseline.is_degraded());
    assert_eq!(baseline.events_discarded, 0);

    let mut service = build_service(shards);
    let victim_row = first_row_of_tenant(victim);
    let plan = FaultPlan::new(5).with_worker_panic(victim_row, 0);
    service.inject_tenant_faults(victim, &plan, RecoveryPolicy::none());
    let report = service.run(sources());

    // Degradation is confined to the victim.
    assert!(report.is_degraded());
    let hurt = &report.tenants[victim];
    assert_eq!(
        hurt.quarantined_shards,
        vec![(victim_row % shards as u64) as usize]
    );
    assert!(hurt.discarded > 0);
    assert!(hurt
        .failure
        .as_deref()
        .expect("quarantined tenant keeps its panic message")
        .contains("injected worker panic"));

    // No admitted event is lost from the accounting, drained to empty.
    assert_eq!(
        report.in_flight_at_end, 0,
        "graceful drain leaves nothing queued"
    );
    for tenant in &report.tenants {
        assert_eq!(
            tenant.enqueued,
            tenant.pipeline.lines_written + tenant.discarded,
            "admitted == executed + discarded for {}",
            tenant.name
        );
    }
    assert_eq!(report.events_discarded, hurt.discarded);

    // Healthy tenants are bit-identical to the uninjected run.
    for t in (0..TENANTS).filter(|&t| t != victim) {
        assert_eq!(
            tenant_key(&report, t),
            tenant_key(&baseline, t),
            "healthy tenant {t} diverged"
        );
        assert!(!report.tenants[t].is_degraded());
    }
}

/// One step of a tenant's stream: a write-back, or a cache-miss fill with
/// the answer it got.
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

/// A [`TraceSource`] that logs its fills' answers into `steps`.
struct FillSpy<'a, S> {
    inner: S,
    steps: &'a mut Vec<Step>,
}

impl<S: TraceSource> TraceSource for FillSpy<'_, S> {
    fn benchmark(&self) -> &str {
        self.inner.benchmark()
    }

    fn next_event(&mut self, mem: &mut dyn MemoryReader) -> Option<WriteBack> {
        let mut logged = Logged {
            memory: mem,
            steps: &mut *self.steps,
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

/// A stream whose hot set exceeds the 256 KiB L2, so lines keep cycling
/// out to memory and back: its fills keep finding written lines (the
/// tenant-mix sources are too short to refetch anything).
fn churn_source() -> WorkloadSource {
    let profile = BenchmarkProfile::new(
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
    WorkloadSource::new(profile, 12_000, BASE_SEED)
}

/// Tenant `t`'s steps on `source` as its solo sequential replay sees them.
fn solo_steps(t: usize, mut source: WorkloadSource) -> Vec<Step> {
    let seed = tenant_seed(BASE_SEED, t as u64);
    let mut solo = build_technique(technique_for(t), seed).with_crypt_seed(seed);
    let mut steps = Vec::new();
    loop {
        let mut logged = Logged {
            memory: &mut solo,
            steps: &mut steps,
        };
        let Some(wb) = source.next_event(&mut logged) else {
            break;
        };
        solo.write_back(&wb);
        steps.push(Step::Write(wb));
    }
    steps
}

/// A worker panic on a write the tenant's own fill runs (the victim
/// streams [`churn_source`], so its fills find written lines): the write
/// directly precedes a fill to the same shard while it still sits in the
/// producer's unflushed batch, so the fill executes it on the producer's
/// thread. The quarantine stays on that one cell, the fill answers `None`,
/// the accounting balances exactly, and the healthy tenants stay
/// bit-identical to the uninjected run at shards {1, 2, 8}.
#[test]
fn fault_in_a_write_run_by_the_fill_stays_confined_at_1_2_8_shards() {
    let victim = 1usize;
    let cfg = pcm_config();
    let steps = solo_steps(victim, churn_source());
    let expected = fills(&steps);

    let mut baseline_service = build_service(1);
    let baseline = baseline_service.run(sources());
    assert!(!baseline.is_degraded());

    for shards in [1usize, 2, 8] {
        // Replay the producer's batching to find the first written-line fill
        // whose shard's unflushed batch ends with the write right before it.
        let shard = |addr: u64| (cfg.row_of_byte_addr(addr) % shards as u64) as usize;
        let mut pending = vec![0usize; shards];
        let mut writes_to_row = std::collections::BTreeMap::new();
        let mut fill = 0;
        let mut target = None;
        let mut last_write = None;
        for step in &steps {
            match step {
                Step::Write(wb) => {
                    let row = cfg.row_of_byte_addr(wb.line_addr);
                    let ordinal = writes_to_row.entry(row).or_insert(0u64);
                    last_write = Some((shard(wb.line_addr), row, *ordinal));
                    *ordinal += 1;
                    let s = shard(wb.line_addr);
                    pending[s] = (pending[s] + 1) % BATCH;
                }
                Step::Fill(addr, answer) => {
                    let s = shard(*addr);
                    if let (Some(_), Some((ws, row, ordinal))) = (answer, last_write) {
                        if ws == s && pending[s] > 0 {
                            target = Some((row, ordinal, fill));
                            break;
                        }
                    }
                    pending[s] = 0;
                    fill += 1;
                    last_write = None;
                }
            }
        }
        let (victim_row, ordinal, fill) =
            target.expect("some fill directly follows an unflushed write to its shard");

        let mut service = build_service(shards);
        let plan = FaultPlan::new(7).with_worker_panic(victim_row, ordinal);
        service.inject_tenant_faults(victim, &plan, RecoveryPolicy::none());
        let mut spied = Vec::new();
        let mut run_sources = sources();
        run_sources[victim] = Box::new(FillSpy {
            inner: churn_source(),
            steps: &mut spied,
        });
        let report = service.run(run_sources);

        let answers = fills(&spied);
        assert_eq!(answers[..fill], expected[..fill], "shards={shards}");
        assert_eq!(
            answers[fill], None,
            "the fill behind the fault (shards={shards})"
        );
        let hurt = &report.tenants[victim];
        assert_eq!(
            hurt.quarantined_shards,
            vec![(victim_row % shards as u64) as usize],
            "shards={shards}"
        );
        assert!(hurt
            .failure
            .as_deref()
            .is_some_and(|message| message.contains("injected worker panic")));
        assert_eq!(report.in_flight_at_end, 0);
        for tenant in &report.tenants {
            assert_eq!(
                tenant.enqueued,
                tenant.pipeline.lines_written + tenant.discarded,
                "admitted == executed + discarded for {} (shards={shards})",
                tenant.name
            );
        }
        assert_eq!(report.events_discarded, hurt.discarded);
        for t in (0..TENANTS).filter(|&t| t != victim) {
            assert_eq!(
                tenant_key(&report, t),
                tenant_key(&baseline, t),
                "healthy tenant {t} diverged at {shards} shards"
            );
            assert!(!report.tenants[t].is_degraded());
        }
    }
}

/// Device-fault determinism at the service level: the same plan produces
/// bit-identical per-tenant stats and fault logs at shards {1, 2, 8}.
#[test]
fn device_fault_plans_replay_bit_identically_at_1_2_8_shards() {
    let plan = FaultPlan::chaos(0xFEED);
    let run = |shards: usize| {
        let mut service = build_service(shards);
        service.inject_faults(&plan, RecoveryPolicy::standard());
        service.run(sources())
    };

    let reference = run(1);
    let injected_any = reference.tenants.iter().any(|t| !t.faults.is_empty());
    assert!(injected_any, "chaos plan must actually inject something");
    assert!(!reference.is_degraded(), "device faults never quarantine");

    for shards in [2usize, 8] {
        let report = run(shards);
        for t in 0..TENANTS {
            assert_eq!(
                tenant_key(&report, t),
                tenant_key(&reference, t),
                "tenant {t} diverged at {shards} shards"
            );
        }
    }
}

/// An injected stream error cuts one tenant's admission at exactly N
/// events; everything admitted drains, nothing is discarded, and the other
/// tenants match the uninjected run.
#[test]
fn stream_error_cutoff_stops_admission_gracefully() {
    let shards = 2;
    let cutoff = 100u64;

    let mut baseline_service = build_service(shards);
    let baseline = baseline_service.run(sources());

    let mut service = build_service(shards);
    let plan = FaultPlan::new(0).with_stream_error(0, cutoff);
    service.inject_faults(&plan, RecoveryPolicy::none());
    let report = service.run(sources());

    let cut = &report.tenants[0];
    assert!(cut.stream_error);
    assert_eq!(
        cut.enqueued, cutoff,
        "admission stops at exactly the cutoff"
    );
    assert_eq!(
        cut.pipeline.lines_written, cutoff,
        "everything admitted drained"
    );
    assert_eq!(cut.discarded, 0);
    assert!(cut.quarantined_shards.is_empty());
    assert_eq!(report.in_flight_at_end, 0);

    for t in 1..TENANTS {
        assert_eq!(
            tenant_key(&report, t),
            tenant_key(&baseline, t),
            "unaffected tenant {t} diverged"
        );
        assert!(!report.tenants[t].stream_error);
    }
}

/// Golden safety at the service level: arming an empty plan (with recovery
/// disabled) changes nothing, bit for bit.
#[test]
fn empty_plan_injection_is_bit_identical_to_no_injection() {
    let shards = 8;
    let mut plain_service = build_service(shards);
    let plain = plain_service.run(sources());

    let mut armed_service = build_service(shards);
    armed_service.inject_faults(&FaultPlan::new(0xDEAD), RecoveryPolicy::none());
    let armed = armed_service.run(sources());

    for t in 0..TENANTS {
        assert_eq!(tenant_key(&armed, t), tenant_key(&plain, t), "tenant {t}");
        assert!(armed.tenants[t].faults.is_empty());
    }
    assert!(!armed.is_degraded());
}
