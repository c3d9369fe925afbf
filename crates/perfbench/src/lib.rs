//! End-to-end and per-layer benchmark of the encrypted write path.
//!
//! [`end_to_end`] runs one workload untraced for a fixed time and reports
//! the metrics a user of the system sees. [`per_layer`] repeats that, then
//! runs the workload once more through timing decorators, replays it on
//! one sequential pipeline per tenant or technique with direct timed calls,
//! and replays those write-backs once more layer by layer. Every run is
//! checked against the workload's sequential oracle.

#![forbid(unsafe_code)]

pub mod host;
pub mod layers;
pub mod span;
pub mod traced;
pub mod workloads;

use std::time::Instant;

use serde::json::Value;

use crate::layers::{layer_replay, LayerFigures};
use crate::span::{snapshot, Layer, Snapshot};
use crate::workloads::{execute, prepare, sequential, Observed, RunOutput, Size, Workload};

/// Fewest untraced runs a measurement takes, however long they last.
pub const MIN_RUNS: usize = 3;

/// Batches of back-to-back set-ups a measurement times, before its first
/// run. Set-up is timed apart from the runs: a set-up right after a run
/// reuses the memory that run freed, and the number of runs depends on their
/// speed.
pub const SETUP_BATCHES: usize = 5;

/// Wall-clock length of one set-up batch. Set-up takes milliseconds or
/// less, and the thread CPU clock moves in scheduler ticks, so a batch
/// repeats set-up (and drops what it built) until this long has passed.
pub const SETUP_BATCH_S: f64 = 0.4;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A benchmark result: the output check's verdict, the operation counts and
/// the metrics, plus the detail lines printed before the result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every run matched the oracle and discarded nothing.
    pub correct: bool,
    /// Write-back events admitted, over all runs.
    pub attempted: u64,
    /// Events discarded, plus every event of a run whose check failed.
    pub failed: u64,
    /// Metrics, in the order of the metric list.
    pub metrics: Vec<Metric>,
    /// Workload inputs, for the result's stamp.
    pub inputs: Value,
    /// Extra JSON lines (traced run only).
    pub detail: Vec<Value>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Value {
        let mut metrics = Value::object();
        for m in &self.metrics {
            metrics = metrics.with(
                m.name,
                Value::object()
                    .with("value", Value::Num(m.value))
                    .with("unit", Value::Str(m.unit.to_string())),
            );
        }
        Value::object()
            .with("correct", Value::Bool(self.correct))
            .with("attempted", Value::UInt(self.attempted))
            .with("failed", Value::UInt(self.failed))
            .with("metrics", metrics)
    }
}

/// Names and units of the end-to-end metrics.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("lines_per_cpu_s", "lines/cpu-s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
    ("sim_energy_pj_per_line", "pJ"),
    ("sim_write_cycles_mean", "cycles"),
    ("sim_writes_to_failure", "writes"),
];

/// Names and units of the per-layer metrics.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("workload.next_event_us", "us"),
    ("workload.fills_per_line", "count"),
    ("memcrypt.encrypt_us_per_line", "us"),
    ("memcrypt.pipeline_encrypt_us_per_line", "us"),
    ("coset.encode_us_per_line", "us"),
    ("coset.decode_us_per_fill", "us"),
    ("protect.judge_us_per_line", "us"),
    ("protect.uncorrectable_share", "share"),
    ("pcm.first_touch_share", "share"),
    ("pcm.first_touch_us", "us"),
    ("pcm.write_self_us_per_line", "us"),
    ("pcm.rss_kb_per_row", "KiB"),
    ("controller.write_us_per_line", "us"),
    ("controller.self_us_per_line", "us"),
    ("controller.read_us_per_fill", "us"),
    ("engine.speedup_vs_sequential", "x"),
    ("engine.fill_wait_us", "us"),
    ("engine.max_in_flight", "count"),
    ("service.speedup_vs_sequential", "x"),
    ("service.fill_wait_us", "us"),
    ("service.fairness", "share"),
    ("service.tenant_min_lines_per_s", "lines/s"),
    ("service.queue_depth_p50", "count"),
    ("run.lines_per_s", "lines/s"),
    ("run.lines_per_cpu_s", "lines/cpu-s"),
    ("trace.traced_lines_per_cpu_s", "lines/cpu-s"),
    ("trace.overhead_share", "share"),
];

fn metrics_from(table: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, unit, value })
        .collect()
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The runs of one measurement, each checked against the oracle.
struct Runs {
    /// The first run. It grows the process's heap and warms the host's
    /// caches, which no later run pays again, so it is checked but not
    /// timed.
    warmup: RunOutput,
    setup_s: Vec<f64>,
    runs: Vec<RunOutput>,
    /// Per timed run, the share of the machine's CPU time the hypervisor
    /// stole while it ran.
    steal: Vec<f64>,
    /// The process's peak resident set after the first run, in MiB: what a
    /// user's single run costs, unaffected by how many runs follow.
    peak_rss_mb: f64,
}

impl Runs {
    /// Times [`SETUP_BATCHES`] set-up batches, runs the workload once to warm
    /// up, then sets
    /// up and runs it until `seconds` have passed since the start and at
    /// least [`MIN_RUNS`] timed runs are done. Each run sets up from
    /// scratch.
    fn measure(workload: Workload, seed: u64, seconds: f64, size: Size, traced: bool) -> Runs {
        let started = Instant::now();
        // CPU time, not wall-clock time: on a shared host the hypervisor
        // steals the guest's CPUs for minutes at a time (see the README).
        let setup_s = (0..SETUP_BATCHES)
            .map(|_| {
                let (t, cpu) = (Instant::now(), host::thread_cpu_s());
                let mut count = 0u32;
                while count == 0 || t.elapsed().as_secs_f64() < SETUP_BATCH_S {
                    drop(prepare(workload, seed, size, traced));
                    count += 1;
                }
                (host::thread_cpu_s() - cpu) / f64::from(count)
            })
            .collect();
        let warmup = execute(prepare(workload, seed, size, traced));
        let mut out = Runs {
            warmup,
            setup_s,
            runs: Vec::new(),
            steal: Vec::new(),
            peak_rss_mb: host::peak_rss_kib() as f64 / 1024.0,
        };
        while out.runs.len() < MIN_RUNS || started.elapsed().as_secs_f64() < seconds {
            let prepared = prepare(workload, seed, size, traced);
            let ticks = host::cpu_ticks();
            out.runs.push(execute(prepared));
            out.steal.push(host::steal_share(ticks, host::cpu_ticks()));
        }
        out
    }

    /// Counts every run, the warm-up too, into `check`.
    fn check(&self, check: &mut Check, oracle: &Observed) {
        for run in std::iter::once(&self.warmup).chain(&self.runs) {
            check.run(run, oracle);
        }
    }

    /// Median lines per wall-clock second.
    fn lines_per_s(&self) -> f64 {
        median(
            &self
                .runs
                .iter()
                .map(|r| ratio(r.lines as f64, r.wall_s))
                .collect::<Vec<_>>(),
        )
    }

    /// Median lines per CPU second.
    fn lines_per_cpu_s(&self) -> f64 {
        median(
            &self
                .runs
                .iter()
                .map(|r| ratio(r.lines as f64, r.cpu_s))
                .collect::<Vec<_>>(),
        )
    }

    /// Every timed run's wall and CPU time, lines and the share of the
    /// machine's CPU time the hypervisor stole while it ran, for the detail
    /// line `{key: [...]}`.
    fn json(&self, key: &str) -> Value {
        let runs = self
            .runs
            .iter()
            .zip(&self.steal)
            .map(|(r, &steal)| {
                Value::object()
                    .with("wall_s", Value::Num(r.wall_s))
                    .with("cpu_s", Value::Num(r.cpu_s))
                    .with("lines", Value::UInt(r.lines))
                    .with("steal_share", Value::Num(steal))
            })
            .collect();
        Value::object().with(key, Value::Arr(runs))
    }

    fn median_wall_s(&self) -> f64 {
        median(&self.runs.iter().map(|r| r.wall_s).collect::<Vec<_>>())
    }
}

/// Running tally of the output check.
#[derive(Debug, Default)]
pub struct Check {
    /// Whether every check so far passed.
    pub correct: bool,
    /// Events admitted.
    pub attempted: u64,
    /// Events discarded, plus every event of a run whose check failed.
    pub failed: u64,
}

impl Check {
    /// A tally with nothing checked yet.
    pub fn new() -> Check {
        Check {
            correct: true,
            ..Check::default()
        }
    }

    /// Counts one run: its admitted events are attempted; its discarded
    /// events fail, and all of them fail when its statistics differ from
    /// the oracle's.
    pub fn run(&mut self, run: &RunOutput, oracle: &Observed) {
        self.count(run.observed == *oracle, run.lines, run.discarded);
    }

    /// Counts `lines` committed and `discarded` events of a replay whose
    /// output check gave `matches`.
    fn count(&mut self, matches: bool, lines: u64, discarded: u64) {
        self.attempted += lines + discarded;
        if !matches {
            self.correct = false;
            self.failed += lines + discarded;
        } else if discarded > 0 {
            self.correct = false;
            self.failed += discarded;
        }
    }

    /// Share of attempted events that did not fail: 1 - failed/attempted.
    pub fn ok_share(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Energy per line, mean write cycles and mean writes to failure of one
/// run's deterministic statistics.
fn sim_figures(observed: &Observed, writes_to_failure: &[u64]) -> [f64; 3] {
    let lines: u64 = observed
        .units
        .iter()
        .map(|u| u.pipeline.lines_written)
        .sum();
    let energy: f64 = observed.units.iter().map(|u| u.memory.energy_pj).sum();
    let cycles: u64 = observed
        .units
        .iter()
        .map(|u| u.timing.writes.total_cycles)
        .sum();
    let writes: u64 = observed.units.iter().map(|u| u.timing.writes.count()).sum();
    let wtf = ratio(
        writes_to_failure.iter().sum::<u64>() as f64,
        writes_to_failure.len() as f64,
    );
    [
        ratio(energy, lines as f64),
        ratio(cycles as f64, writes as f64),
        wtf,
    ]
}

fn inputs(workload: Workload, seed: u64, size: Size, lines: u64) -> Value {
    let strs = |v: &[String]| Value::Arr(v.iter().map(|s| Value::Str(s.clone())).collect());
    let base = Value::object()
        .with("workload", Value::Str(workload.name().to_string()))
        .with("seed", Value::UInt(seed))
        .with("shards", Value::UInt(workloads::SHARDS as u64))
        .with("lines_per_run", Value::UInt(lines));
    match workload {
        Workload::ServeMixed => {
            let sc = workloads::serve_scenario(seed, size);
            base.with("techniques", strs(&sc.techniques))
                .with("profiles", strs(&sc.profiles))
                .with("accesses_per_tenant", Value::UInt(sc.accesses_per_tenant))
                .with("working_set_divisor", Value::UInt(sc.working_set_divisor))
                .with("queue_capacity", Value::UInt(sc.queue_capacity as u64))
                .with("batch", Value::UInt(sc.batch as u64))
        }
        Workload::StreamVcc256 => base
            .with("technique", Value::Str(workloads::STREAM_TECHNIQUE.name()))
            .with("profile", Value::Str("mcf_like".to_string()))
            .with("accesses", Value::UInt(size.stream_accesses))
            .with(
                "working_set_divisor",
                Value::UInt(workloads::WORKING_SET_DIVISOR),
            ),
        Workload::LifetimeCoset => base
            .with(
                "techniques",
                strs(
                    &workloads::LIFETIME_TECHNIQUES
                        .iter()
                        .map(|t| t.name())
                        .collect::<Vec<_>>(),
                ),
            )
            .with("profile", Value::Str("mcf_like".to_string()))
            .with("scale", Value::Str("tiny".to_string()))
            .with("write_cap", Value::UInt(size.lifetime_cap)),
    }
}

/// Runs `workload` untraced for `seconds` and reports the end-to-end
/// metrics. The oracle runs after the timed runs, so the peak resident set
/// is the runs' own.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64, size: Size) -> Report {
    let runs = Runs::measure(workload, seed, seconds, size, false);
    let oracle = sequential(workload, seed, size, false);
    let mut check = Check::new();
    runs.check(&mut check, &oracle.observed);
    let first = &runs.warmup;
    let wtf = if first.observed.lifetimes.is_empty() {
        oracle.writes_to_failure.clone()
    } else {
        first
            .observed
            .lifetimes
            .iter()
            .map(|l| l.writes_to_failure)
            .collect()
    };
    let [energy, cycles, wtf] = sim_figures(&first.observed, &wtf);
    let values = [
        median(&runs.setup_s),
        runs.lines_per_cpu_s(),
        runs.peak_rss_mb,
        check.ok_share(),
        energy,
        cycles,
        wtf,
    ];
    Report {
        correct: check.correct,
        attempted: check.attempted,
        failed: check.failed,
        metrics: metrics_from(&END_TO_END, &values),
        inputs: inputs(workload, seed, size, first.lines),
        detail: vec![runs.json("runs")],
    }
}

fn spans_json(phase: &str, s: &Snapshot) -> Value {
    let mut spans = Value::object();
    for layer in Layer::ALL {
        let t = s.get(layer);
        if t.count > 0 {
            spans = spans.with(
                layer.name(),
                Value::object()
                    .with("count", Value::UInt(t.count))
                    .with("total_ms", Value::Num(t.total_ns as f64 / 1e6))
                    .with("self_ms", Value::Num(t.self_ns as f64 / 1e6)),
            );
        }
    }
    Value::object().with("spans", Value::object().with(phase, spans))
}

/// Runs `workload` untraced for `seconds`, then traced, and reports the
/// per-layer metrics. Three traced phases follow the untraced runs:
///
/// * the workload itself with every encoder, correction scheme, source and
///   fill reader wrapped in a timing decorator;
/// * the sequential reference: one pipeline per tenant or technique, with
///   `write_back` and `read_line` timed as direct calls;
/// * the layer replay of the reference's write-backs ([`layer_replay`]).
///
/// Each phase passes the same output check as the untraced runs.
pub fn per_layer(workload: Workload, seed: u64, seconds: f64, size: Size) -> Report {
    // The oracle runs first so that its resident-set growth per row is
    // measured on a heap no earlier phase has grown.
    let oracle = sequential(workload, seed, size, false);
    let runs = Runs::measure(workload, seed, seconds, size, false);
    let mut check = Check::new();
    runs.check(&mut check, &oracle.observed);

    let t0 = snapshot();
    let traced_runs = Runs::measure(workload, seed, seconds, size, true);
    let t1 = snapshot();
    traced_runs.check(&mut check, &oracle.observed);
    let reference = sequential(workload, seed, size, true);
    let t2 = snapshot();
    let oracle_total =
        |f: fn(&workloads::Stats) -> u64| -> u64 { oracle.observed.units.iter().map(f).sum() };
    let oracle_lines = oracle_total(|u| u.pipeline.lines_written);
    check.count(reference.observed == oracle.observed, oracle_lines, 0);
    let mut figures = LayerFigures {
        matches: true,
        ..LayerFigures::default()
    };
    for rec in &reference.recordings {
        figures.merge(&layer_replay(rec));
    }
    let t3 = snapshot();
    check.count(figures.matches, oracle_lines, 0);

    let (a, b, c) = (t1.since(&t0), t2.since(&t1), t3.since(&t2));
    let fills = a.get(Layer::Fill).count as f64;
    let untraced = runs.lines_per_cpu_s();
    let traced = traced_runs.lines_per_cpu_s();
    let speedup = ratio(oracle.wall_s, runs.median_wall_s());
    let pcm_self = c.get(Layer::PcmWrite).mean_self_us();
    let pipeline_encrypt = c.get(Layer::SimEncrypt).mean_us();
    let controller_self = b.get(Layer::WriteBack).mean_self_us() - pcm_self - pipeline_encrypt;
    let first_touch_us = ratio(figures.fresh.1 as f64, figures.fresh.0 as f64) / 1e3
        - ratio(figures.warm.1 as f64, figures.warm.0 as f64) / 1e3;
    let fill_wait = a.get(Layer::Fill).mean_us();
    let (serve, stream, engine) = (
        workload == Workload::ServeMixed,
        workload == Workload::StreamVcc256,
        workload != Workload::ServeMixed,
    );
    let service_figure = |f: fn(&workloads::ServiceFigures) -> f64| {
        let values: Vec<f64> = runs
            .runs
            .iter()
            .filter_map(|r| r.service.as_ref().map(f))
            .collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let values = [
        a.get(Layer::NextEvent).mean_self_us(),
        ratio(fills, a.get(Layer::NextEvent).count as f64),
        c.get(Layer::CtrEncrypt).mean_us(),
        pipeline_encrypt,
        a.get(Layer::EncodeLine).mean_us(),
        ratio(a.get(Layer::Decode).total_ns as f64 / 1e3, fills),
        a.get(Layer::Judge).mean_us(),
        ratio(
            oracle_total(|u| u.pipeline.uncorrectable_lines) as f64,
            oracle_lines as f64,
        ),
        ratio(
            oracle.rows_touched as f64,
            oracle_total(|u| u.memory.row_writes) as f64,
        ),
        first_touch_us,
        pcm_self,
        ratio(oracle.rss_growth_kib as f64, oracle.rows_touched as f64),
        b.get(Layer::WriteBack).mean_us(),
        controller_self,
        b.get(Layer::ReadLine).mean_us(),
        only(engine, speedup),
        only(stream, fill_wait),
        only(
            stream,
            median(
                &runs
                    .runs
                    .iter()
                    .map(|r| r.max_in_flight as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        only(serve, speedup),
        only(serve, fill_wait),
        only(serve, service_figure(|s| s.fairness)),
        only(serve, service_figure(|s| s.tenant_min_lines_per_s)),
        only(serve, service_figure(|s| s.queue_depth_p50 as f64)),
        runs.lines_per_s(),
        untraced,
        traced,
        ratio(untraced, traced) - 1.0,
    ];

    let ref_lines = b.get(Layer::WriteBack).count as f64;
    let per_line = |ns: u64| ratio(ns as f64 / 1e3, ref_lines);
    let ledger = Value::object()
        .with(
            "workload",
            Value::Num(per_line(b.get(Layer::NextEvent).self_ns)),
        )
        .with("memcrypt", Value::Num(pipeline_encrypt))
        .with(
            "coset",
            Value::Num(per_line(
                b.get(Layer::EncodeLine).total_ns + b.get(Layer::Decode).total_ns,
            )),
        )
        .with(
            "protect",
            Value::Num(per_line(b.get(Layer::Judge).total_ns)),
        )
        .with("pcm", Value::Num(pcm_self))
        .with(
            "controller",
            Value::Num(controller_self + per_line(b.get(Layer::ReadLine).self_ns)),
        );
    Report {
        correct: check.correct,
        attempted: check.attempted,
        failed: check.failed,
        metrics: metrics_from(&PER_LAYER, &values),
        inputs: inputs(workload, seed, size, runs.warmup.lines),
        detail: vec![
            runs.json("runs"),
            traced_runs.json("traced_runs"),
            spans_json("run", &a),
            spans_json("sequential", &b),
            spans_json("layer_replay", &c),
            Value::object().with("ledger_us_per_line", ledger),
        ],
    }
}
