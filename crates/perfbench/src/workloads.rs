//! The three workloads: how each is set up, run, and replayed sequentially
//! as its oracle.
//!
//! Every workload starts from cold rows and caches, as a user's run does.
//! The untraced path calls the same public entry points a user calls
//! (`experiments::service_cli::technique_pipeline`, `Technique::engine`);
//! the traced path builds the same pipelines around timing decorators, and
//! the output check proves the two agree.

use std::time::Instant;

use controller::{PipelineStats, TimingStats, WritePipeline};
use coset::cost::{opt_saw_then_energy, CostFunction, WriteEnergy};
use engine::{EngineConfig, ShardSpec, ShardedEngine};
use experiments::lifetime::LifetimeOutcome;
use experiments::service_cli::technique_pipeline;
use experiments::{Scale, Technique};
use pcm::{MemoryStats, PcmConfig};
use service::loadgen::{self, Scenario};
use service::{tenant_seed, MemoryService, TenantCtx};
use workload::{spec_like, MemoryReader, NoMemory, Trace, TraceSource, WorkloadSource, WriteBack};

use crate::host;
use crate::span::{span, Layer};
use crate::traced::{TracedCorrection, TracedEncoder, TracedSource};

/// Seed of the service's per-tenant memory arrays: the value
/// `experiments::service_cli` builds tenant pipelines with. A drift between
/// the two shows as an output-check failure of the traced run.
pub const ARRAY_SEED: u64 = 0xA11CE;

/// Bank shards in every workload.
pub const SHARDS: usize = 2;

/// Working-set divisor of serve-mixed and stream-vcc256. At 256 every
/// tenant's footprint (0.75-2 MiB) exceeds the modelled 256 KiB L2, so
/// write-backs stream out during the run instead of only at the final flush.
pub const WORKING_SET_DIVISOR: u64 = 256;

/// The serve-mixed tenants' techniques, one tenant each.
pub const SERVE_TECHNIQUES: [&str; 4] = ["unencoded", "secded", "fnw16", "vcc64"];

/// The stream-vcc256 technique: the Fig. 9 design.
pub const STREAM_TECHNIQUE: Technique = Technique::VccGenerated { cosets: 256 };

/// The lifetime-coset techniques.
pub const LIFETIME_TECHNIQUES: [Technique; 3] = [
    Technique::Secded,
    Technique::VccStored { cosets: 256 },
    Technique::Rcc { cosets: 256 },
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four tenants through `service::MemoryService`.
    ServeMixed,
    /// One source through `engine::ShardedEngine::stream_replay`.
    StreamVcc256,
    /// `ShardedEngine::lifetime_replay` for three techniques.
    LifetimeCoset,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ServeMixed,
        Workload::StreamVcc256,
        Workload::LifetimeCoset,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMixed => "serve-mixed",
            Workload::StreamVcc256 => "stream-vcc256",
            Workload::LifetimeCoset => "lifetime-coset",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Cache accesses each serve-mixed tenant simulates.
    pub serve_accesses: u64,
    /// Cache accesses the stream-vcc256 source simulates.
    pub stream_accesses: u64,
    /// Row-write cap of each lifetime-coset run.
    pub lifetime_cap: u64,
}

impl Size {
    /// The benchmark's size. Lifetime runs use the cap of
    /// `experiments::lifetime` at Tiny scale.
    pub fn full() -> Size {
        Size {
            serve_accesses: 40_000,
            stream_accesses: 60_000,
            lifetime_cap: Scale::Tiny.lifetime_write_cap(),
        }
    }

    /// A small size for the benchmark's own tests.
    pub const SMOKE: Size = Size {
        serve_accesses: 3_000,
        stream_accesses: 3_000,
        lifetime_cap: 2_000,
    };
}

/// The deterministic statistics of one pipeline or one merged engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Lines written, uncorrectable lines and failed rows.
    pub pipeline: PipelineStats,
    /// Array statistics (energy, cells, stuck-at-wrong counts).
    pub memory: MemoryStats,
    /// Bank timing model statistics.
    pub timing: TimingStats,
}

impl Stats {
    fn of_pipeline(p: &WritePipeline) -> Stats {
        Stats {
            pipeline: *p.stats(),
            memory: *p.memory_stats(),
            timing: *p.timing_stats(),
        }
    }

    fn of_engine(e: &ShardedEngine) -> Stats {
        Stats {
            pipeline: e.stats(),
            memory: e.memory_stats(),
            timing: e.timing_stats(),
        }
    }
}

/// What the output check compares: one [`Stats`] per tenant or technique,
/// and the lifetime outcomes of lifetime-coset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    /// Per tenant (serve-mixed), the one engine (stream-vcc256) or per
    /// technique (lifetime-coset).
    pub units: Vec<Stats>,
    /// Per technique, lifetime-coset only.
    pub lifetimes: Vec<LifetimeOutcome>,
}

/// Figures the service reports about its own run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceFigures {
    /// Min over max per-tenant rate (`loadgen::summarize`).
    pub fairness: f64,
    /// Lowest per-tenant lines per active second.
    pub tenant_min_lines_per_s: f64,
    /// Highest per-tenant median lane depth.
    pub queue_depth_p50: usize,
}

/// One run of a workload.
pub struct RunOutput {
    /// What the output check compares.
    pub observed: Observed,
    /// Lines (row writes) committed.
    pub lines: u64,
    /// Wall-clock seconds of the run, setup excluded.
    pub wall_s: f64,
    /// CPU seconds the run used, all threads, setup excluded.
    pub cpu_s: f64,
    /// Events admitted but discarded or quarantined.
    pub discarded: u64,
    /// Highest number of queued commands (0 for lifetime-coset).
    pub max_in_flight: usize,
    /// Service figures (serve-mixed only).
    pub service: Option<ServiceFigures>,
}

/// A workload set up and ready to run.
pub enum Prepared {
    /// serve-mixed.
    Serve {
        /// The loadgen scenario.
        scenario: Scenario,
        /// The built service.
        service: MemoryService,
        /// One source per tenant.
        sources: Vec<Box<dyn TraceSource + Send>>,
    },
    /// stream-vcc256.
    Stream {
        /// The sharded engine.
        engine: ShardedEngine,
        /// The workload source.
        source: Box<dyn TraceSource + Send>,
    },
    /// lifetime-coset.
    Lifetime {
        /// The trace every technique replays.
        trace: Trace,
        /// One engine per technique.
        engines: Vec<ShardedEngine>,
        /// Row-write cap.
        cap: u64,
    },
}

/// The serve-mixed scenario for `seed`: `loadgen`'s mixed scenario shape on
/// 4 tenants and 2 shards, with the working set above L2.
pub fn serve_scenario(seed: u64, size: Size) -> Scenario {
    Scenario {
        name: "serve-mixed".to_string(),
        tenants: SERVE_TECHNIQUES.len(),
        shards: SHARDS,
        techniques: SERVE_TECHNIQUES.iter().map(|s| s.to_string()).collect(),
        profiles: spec_like::tenant_mix(SERVE_TECHNIQUES.len())
            .into_iter()
            .map(|p| p.name)
            .collect(),
        accesses_per_tenant: size.serve_accesses,
        working_set_divisor: WORKING_SET_DIVISOR,
        queue_capacity: 64,
        batch: 8,
        seed,
    }
}

/// The stream-vcc256 source: `mcf_like` above L2.
pub fn stream_source(seed: u64, size: Size) -> WorkloadSource {
    // PANIC-OK: a fixed name from the built-in profile table.
    let profile = spec_like::profile_by_name("mcf_like")
        .expect("mcf_like is a spec_like profile")
        .scaled_down(WORKING_SET_DIVISOR);
    WorkloadSource::new(profile, size.stream_accesses, seed)
}

/// A pipeline built as `Technique::pipeline` builds it; when `traced`, its
/// encoder and correction scheme are wrapped in timing decorators.
pub fn pipeline(
    technique: Technique,
    config: PcmConfig,
    encoder_seed: u64,
    crypt_seed: u64,
    cost: Box<dyn CostFunction>,
    traced: bool,
) -> WritePipeline {
    if !traced {
        return technique.pipeline(config, None, encoder_seed, crypt_seed, cost);
    }
    WritePipeline::new(
        config,
        Box::new(TracedEncoder(technique.encoder(encoder_seed))),
    )
    .with_correction(Box::new(TracedCorrection(technique.correction())))
    .with_cost(cost)
    .with_timing(technique.timing_params())
    .with_crypt_seed(crypt_seed)
}

fn serve_technique(label: &str) -> Technique {
    // PANIC-OK: the labels are this file's SERVE_TECHNIQUES constants.
    Technique::from_cli(label).expect("serve-mixed names known techniques")
}

fn serve_pipeline(ctx: &TenantCtx<'_>, traced: bool) -> WritePipeline {
    if !traced {
        return technique_pipeline(ctx, Scale::Tiny);
    }
    pipeline(
        serve_technique(ctx.technique),
        Scale::Tiny.pcm_config(ARRAY_SEED),
        ctx.crypt_seed,
        ctx.crypt_seed,
        Box::new(WriteEnergy::mlc()),
        true,
    )
}

/// The lifetime trace. Traced, it is drawn through a [`TracedSource`] from
/// the streaming source `experiments::common::source_for` builds, which
/// emits the same events as `trace_for` against [`NoMemory`]; the traced
/// run's output check confirms it replayed the same trace.
fn lifetime_trace(seed: u64, traced: bool) -> Trace {
    let profile = &Scale::Tiny.benchmarks()[0];
    if !traced {
        return experiments::common::trace_for(profile, Scale::Tiny, seed);
    }
    let mut source = TracedSource(Box::new(experiments::common::source_for(
        profile,
        Scale::Tiny,
        seed,
    )));
    let mut events = Vec::new();
    while let Some(wb) = source.next_event(&mut NoMemory) {
        events.push(wb);
    }
    Trace::new(&profile.name, events, source.accesses())
}

/// Sets a workload up: builds its service or engines and its sources.
pub fn prepare(workload: Workload, seed: u64, size: Size, traced: bool) -> Prepared {
    match workload {
        Workload::ServeMixed => {
            let scenario = serve_scenario(seed, size);
            let specs = scenario.tenant_specs();
            let service = MemoryService::build(scenario.service_config(), &specs, |ctx| {
                serve_pipeline(ctx, traced)
            });
            let sources = scenario
                .sources()
                .into_iter()
                .map(|s| wrap(s, traced))
                .collect();
            Prepared::Serve {
                scenario,
                service,
                sources,
            }
        }
        Workload::StreamVcc256 => Prepared::Stream {
            engine: Unit::engine_unit(STREAM_TECHNIQUE, seed, false).engine(seed, SHARDS, traced),
            source: wrap(Box::new(stream_source(seed, size)), traced),
        },
        Workload::LifetimeCoset => Prepared::Lifetime {
            trace: lifetime_trace(seed, traced),
            engines: LIFETIME_TECHNIQUES
                .iter()
                .map(|&t| Unit::engine_unit(t, seed, true).engine(seed, SHARDS, traced))
                .collect(),
            cap: size.lifetime_cap,
        },
    }
}

fn wrap(source: Box<dyn TraceSource + Send>, traced: bool) -> Box<dyn TraceSource + Send> {
    if traced {
        Box::new(TracedSource(source))
    } else {
        source
    }
}

/// Runs `f`, returning its result, wall-clock seconds and process CPU
/// seconds.
fn clocked<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (started, cpu) = (Instant::now(), host::process_cpu_s());
    let out = f();
    (
        out,
        started.elapsed().as_secs_f64(),
        host::process_cpu_s() - cpu,
    )
}

/// Runs a prepared workload to completion. `wall_s` and `cpu_s` cover only
/// the call into the system under test.
pub fn execute(prepared: Prepared) -> RunOutput {
    match prepared {
        Prepared::Serve {
            scenario,
            mut service,
            sources,
        } => {
            let (report, wall_s, cpu_s) = clocked(|| service.run(sources));
            let outcome = loadgen::summarize(&scenario, report);
            let report = &outcome.report;
            let tenant_min_lines_per_s = report
                .tenants
                .iter()
                .filter(|t| t.active_secs > 0.0)
                .map(|t| t.pipeline.lines_written as f64 / t.active_secs)
                .fold(f64::INFINITY, f64::min);
            RunOutput {
                observed: Observed {
                    units: report
                        .tenants
                        .iter()
                        .map(|t| Stats {
                            pipeline: t.pipeline,
                            memory: t.memory,
                            timing: t.timing,
                        })
                        .collect(),
                    lifetimes: Vec::new(),
                },
                lines: outcome.lines_total,
                wall_s,
                cpu_s,
                discarded: report.events_discarded
                    + report.tenants.iter().map(|t| t.discarded).sum::<u64>(),
                max_in_flight: report.max_in_flight,
                service: Some(ServiceFigures {
                    fairness: outcome.fairness,
                    tenant_min_lines_per_s: if tenant_min_lines_per_s.is_finite() {
                        tenant_min_lines_per_s
                    } else {
                        0.0
                    },
                    queue_depth_p50: report
                        .tenants
                        .iter()
                        .map(|t| t.queue_depth_p50)
                        .max()
                        .unwrap_or(0),
                }),
            }
        }
        Prepared::Stream {
            mut engine,
            mut source,
        } => {
            let (summary, wall_s, cpu_s) = clocked(|| engine.stream_replay(source.as_mut()));
            RunOutput {
                observed: Observed {
                    units: vec![Stats::of_engine(&engine)],
                    lifetimes: Vec::new(),
                },
                lines: summary.events,
                wall_s,
                cpu_s,
                discarded: summary.events_discarded + engine.discarded_events(),
                max_in_flight: summary.max_in_flight,
                service: None,
            }
        }
        Prepared::Lifetime {
            trace,
            mut engines,
            cap,
        } => {
            let target = Scale::Tiny.rows_to_failure();
            let (lifetimes, wall_s, cpu_s) = clocked(|| {
                engines
                    .iter_mut()
                    .map(|e| e.lifetime_replay(&trace, target, cap).into())
                    .collect::<Vec<LifetimeOutcome>>()
            });
            let units: Vec<Stats> = engines.iter().map(Stats::of_engine).collect();
            RunOutput {
                lines: units.iter().map(|u| u.pipeline.lines_written).sum(),
                observed: Observed { units, lifetimes },
                wall_s,
                cpu_s,
                discarded: engines.iter().map(|e| e.discarded_events()).sum(),
                max_in_flight: 0,
                service: None,
            }
        }
    }
}

/// Everything the layer replay needs to push one sequential pipeline's
/// write-backs through the layers again, one call at a time.
pub struct Recording {
    /// How the pipeline was configured.
    pub unit: Unit,
    /// The memory configuration.
    pub config: PcmConfig,
    /// The write-backs, in order.
    pub writes: Vec<WriteBack>,
    /// The pipeline's statistics after the last write.
    pub stats: Stats,
    /// Rows the pipeline's memory materialised.
    pub rows_touched: usize,
}

/// The sequential replay of a workload: its oracle (untraced) or its
/// traced sequential reference.
pub struct Sequential {
    /// What the output check compares.
    pub observed: Observed,
    /// Host seconds of the replays, setup excluded.
    pub wall_s: f64,
    /// Per unit: row writes performed when `Scale::Tiny.rows_to_failure()`
    /// rows had failed, or all row writes when fewer failed (a lower
    /// bound, as a capped lifetime run reports).
    pub writes_to_failure: Vec<u64>,
    /// Per unit, traced only.
    pub recordings: Vec<Recording>,
    /// Rows the replays' memories materialised.
    pub rows_touched: u64,
    /// Growth of the process's resident set across the replays, in KiB,
    /// with every replay's pipeline still alive.
    pub rss_growth_kib: u64,
}

/// The [`MemoryReader`] a sequential replay hands its source: the pipeline
/// itself, with direct `read_line` calls timed when traced.
struct PipelineReader<'a> {
    pipeline: &'a mut WritePipeline,
    traced: bool,
}

impl MemoryReader for PipelineReader<'_> {
    fn read_line(&mut self, line_addr: u64) -> Option<workload::LineData> {
        if self.traced {
            span(Layer::ReadLine, || self.pipeline.read_line(line_addr))
        } else {
            self.pipeline.read_line(line_addr)
        }
    }
}

fn write_back(p: &mut WritePipeline, wb: &WriteBack, traced: bool) -> bool {
    let report = if traced {
        span(Layer::WriteBack, || p.write_back(wb))
    } else {
        p.write_back(wb)
    };
    report.newly_failed_row
}

/// `WritePipeline::stream_replay`'s loop, keeping each write's report to
/// find the failure ordinal. Returns the timed seconds and the ordinal.
fn stream_sequential(
    p: &mut WritePipeline,
    source: Box<dyn TraceSource + Send>,
    traced: bool,
    record: &mut Vec<WriteBack>,
) -> (f64, u64) {
    let mut source = wrap(source, traced);
    let target = Scale::Tiny.rows_to_failure();
    let (mut writes, mut failures, mut failed_at) = (0u64, 0usize, None);
    let started = Instant::now();
    loop {
        let next = source.next_event(&mut PipelineReader {
            pipeline: p,
            traced,
        });
        let Some(wb) = next else { break };
        writes += 1;
        if write_back(p, &wb, traced) {
            failures += 1;
            if failures == target {
                failed_at = Some(writes);
            }
        }
        if traced {
            record.push(wb);
        }
    }
    (started.elapsed().as_secs_f64(), failed_at.unwrap_or(writes))
}

/// `ShardedEngine::lifetime_replay`'s sequential semantics, traced: whole
/// rounds over the trace until the failure target or the cap is reached.
fn lifetime_sequential(
    p: &mut WritePipeline,
    trace: &Trace,
    cap: u64,
    record: &mut Vec<WriteBack>,
) -> (f64, LifetimeOutcome) {
    let target = Scale::Tiny.rows_to_failure();
    let len = trace.len() as u64;
    let mut ordinals = Vec::new();
    let mut rounds = 0u64;
    let started = Instant::now();
    let outcome = loop {
        for (pos, wb) in trace.iter().enumerate() {
            if write_back(p, wb, true) {
                ordinals.push(rounds * len + pos as u64 + 1);
            }
            record.push(*wb);
        }
        rounds += 1;
        if ordinals.len() >= target && ordinals[target - 1] <= cap {
            break LifetimeOutcome {
                writes_to_failure: ordinals[target - 1],
                reached_failure: true,
                failed_rows: target,
            };
        }
        if len == 0 || rounds.saturating_mul(len) >= cap {
            break LifetimeOutcome {
                writes_to_failure: if len == 0 { 0 } else { cap },
                reached_failure: false,
                failed_rows: ordinals.iter().filter(|&&o| o <= cap).count(),
            };
        }
    };
    (started.elapsed().as_secs_f64(), outcome)
}

/// Replays a workload on one sequential pipeline per tenant or technique:
/// the oracle when untraced (serve-mixed: each tenant's solo replay under
/// `service::tenant_seed`; stream-vcc256: the sequential stream replay;
/// lifetime-coset: the 1-shard engine's semantics), and the traced
/// sequential reference when traced.
pub fn sequential(workload: Workload, seed: u64, size: Size, traced: bool) -> Sequential {
    let rss_before = host::rss_kib();
    let mut out = Sequential {
        observed: Observed::default(),
        wall_s: 0.0,
        writes_to_failure: Vec::new(),
        recordings: Vec::new(),
        rows_touched: 0,
        rss_growth_kib: 0,
    };
    // Every replay's pipeline stays alive until the resident set is read.
    let mut alive: Vec<WritePipeline> = Vec::new();
    match workload {
        Workload::ServeMixed => {
            let scenario = serve_scenario(seed, size);
            let specs = scenario.tenant_specs();
            for (t, source) in scenario.sources().into_iter().enumerate() {
                let tenant_key = tenant_seed(scenario.seed, t as u64);
                let ctx = TenantCtx {
                    tenant_id: t,
                    name: &specs[t].name,
                    technique: &specs[t].technique,
                    crypt_seed: tenant_key,
                    shard: ShardSpec {
                        shard_id: 0,
                        shards: 1,
                        crypt_seed: tenant_key,
                    },
                };
                let mut p = serve_pipeline(&ctx, traced).with_crypt_seed(tenant_key);
                let mut writes = Vec::new();
                let (wall, wtf) = stream_sequential(&mut p, source, traced, &mut writes);
                let technique = serve_technique(ctx.technique);
                let unit = Unit::new(technique, tenant_key, tenant_key, false);
                out.push(&p, unit, wall, wtf, writes, traced);
                alive.push(p);
            }
        }
        Workload::StreamVcc256 => {
            let unit = Unit::engine_unit(STREAM_TECHNIQUE, seed, false);
            let mut p = unit.pipeline(seed, traced);
            let mut writes = Vec::new();
            let source = Box::new(stream_source(seed, size));
            let (wall, wtf) = stream_sequential(&mut p, source, traced, &mut writes);
            out.push(&p, unit, wall, wtf, writes, traced);
            alive.push(p);
        }
        Workload::LifetimeCoset => {
            let trace = lifetime_trace(seed, false);
            let (target, cap) = (Scale::Tiny.rows_to_failure(), size.lifetime_cap);
            for technique in LIFETIME_TECHNIQUES {
                let unit = Unit::engine_unit(technique, seed, true);
                if traced {
                    let mut p = unit.pipeline(seed, true);
                    let mut writes = Vec::new();
                    let (wall, outcome) = lifetime_sequential(&mut p, &trace, cap, &mut writes);
                    out.push(&p, unit, wall, outcome.writes_to_failure, writes, true);
                    out.observed.lifetimes.push(outcome);
                    alive.push(p);
                } else {
                    let mut engine = unit.engine(seed, 1, false);
                    let started = Instant::now();
                    let outcome: LifetimeOutcome =
                        engine.lifetime_replay(&trace, target, cap).into();
                    out.wall_s += started.elapsed().as_secs_f64();
                    out.writes_to_failure.push(outcome.writes_to_failure);
                    out.observed.units.push(Stats::of_engine(&engine));
                    out.observed.lifetimes.push(outcome);
                    alive.extend(engine.into_pipelines());
                }
            }
        }
    }
    out.rows_touched = alive.iter().map(|p| p.memory().rows_touched() as u64).sum();
    out.rss_growth_kib = host::rss_kib().saturating_sub(rss_before);
    out
}

/// How one sequential pipeline is configured.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// The technique.
    pub technique: Technique,
    /// Encoder seed.
    pub encoder_seed: u64,
    /// Encryption seed.
    pub crypt_seed: u64,
    /// Whether the cost objective is `opt_saw_then_energy` (else the MLC
    /// write energy).
    pub saw_cost: bool,
}

impl Unit {
    fn new(technique: Technique, encoder_seed: u64, crypt_seed: u64, saw_cost: bool) -> Unit {
        Unit {
            technique,
            encoder_seed,
            crypt_seed,
            saw_cost,
        }
    }

    /// A technique as the engine workloads build it for `seed`, with the
    /// seeds `experiments::lifetime::lifetime_run_with` derives.
    fn engine_unit(technique: Technique, seed: u64, saw_cost: bool) -> Unit {
        Unit::new(technique, seed ^ 0x11FE, seed ^ 0xC0DE, saw_cost)
    }

    /// The unit's cost objective.
    pub fn cost(&self) -> Box<dyn CostFunction> {
        if self.saw_cost {
            Box::new(opt_saw_then_energy())
        } else {
            Box::new(WriteEnergy::mlc())
        }
    }

    /// The pipeline the engine workloads build for `seed`, keyed as the
    /// engine keys its shards.
    fn pipeline(&self, seed: u64, traced: bool) -> WritePipeline {
        pipeline(
            self.technique,
            Scale::Tiny.pcm_config(seed),
            self.encoder_seed,
            self.crypt_seed,
            self.cost(),
            traced,
        )
        .with_crypt_seed(self.crypt_seed)
    }

    /// The engine workloads' engine over `shards` copies of
    /// [`Unit::pipeline`]: `Technique::engine` itself when untraced.
    fn engine(&self, seed: u64, shards: usize, traced: bool) -> ShardedEngine {
        let config = EngineConfig::default().with_shards(shards);
        if !traced {
            return self.technique.engine(
                config,
                Scale::Tiny.pcm_config(seed),
                None,
                self.encoder_seed,
                self.crypt_seed,
                || self.cost(),
            );
        }
        ShardedEngine::from_factory(config, self.crypt_seed, |_| self.pipeline(seed, true))
    }
}

impl Sequential {
    fn push(
        &mut self,
        p: &WritePipeline,
        unit: Unit,
        wall_s: f64,
        writes_to_failure: u64,
        writes: Vec<WriteBack>,
        traced: bool,
    ) {
        let stats = Stats::of_pipeline(p);
        self.wall_s += wall_s;
        self.writes_to_failure.push(writes_to_failure);
        if traced {
            self.recordings.push(Recording {
                unit,
                config: p.memory().config().clone(),
                writes,
                stats: stats.clone(),
                rows_touched: p.memory().rows_touched(),
            });
        }
        self.observed.units.push(stats);
    }
}
