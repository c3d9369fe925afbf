//! Smoke tests: every workload at a small size on two seeds passes the
//! output check and reports every metric with its unit; a perturbed
//! statistic fails the check.

use perfbench::workloads::{
    execute, pipeline, prepare, sequential, stream_source, Size, Workload, STREAM_TECHNIQUE,
};
use perfbench::{end_to_end, per_layer, Check, Report, END_TO_END, PER_LAYER};

fn assert_reports(report: &Report, table: &[(&str, &str)]) {
    assert!(report.correct, "output check failed");
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    let names: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, table);
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    let json = report.result_json().render();
    for (name, unit) in table {
        assert!(
            json.contains(&format!("\"{name}\":{{\"value\":")),
            "{name} missing from {json}"
        );
        assert!(json.contains(&format!("\"unit\":\"{unit}\"")), "{unit}");
    }
}

#[test]
fn every_workload_passes_the_check_on_two_seeds() {
    for workload in Workload::ALL {
        for seed in [1, 2] {
            let report = end_to_end(workload, seed, 0.0, Size::SMOKE);
            assert_reports(&report, &END_TO_END);
            let value = |name| {
                report
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .expect("metric present")
            };
            assert_eq!(value("ok_share"), 1.0, "{}", workload.name());
            for name in ["setup_s", "peak_rss_mb", "sim_energy_pj_per_line"] {
                assert!(value(name) > 0.0, "{name} on {}", workload.name());
            }
            // CPU time counts in 10 ms ticks, which a smoke-sized run may
            // not reach.
            assert!(value("lines_per_cpu_s") >= 0.0);
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    for workload in Workload::ALL {
        let report = per_layer(workload, 3, 0.0, Size::SMOKE);
        assert_reports(&report, &PER_LAYER);
    }
}

#[test]
fn metric_lists_match_the_benchmark_definition() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
}

#[test]
fn a_perturbed_statistic_fails_the_check() {
    type Perturb = fn(&mut perfbench::workloads::Observed);
    let perturbations: [(Workload, Perturb); 4] = [
        (Workload::ServeMixed, |o| {
            o.units[1].pipeline.lines_written += 1
        }),
        (Workload::StreamVcc256, |o| {
            o.units[0].memory.energy_pj += 1.0
        }),
        (Workload::StreamVcc256, |o| {
            o.units[0].timing.writes.total_cycles += 1
        }),
        (Workload::LifetimeCoset, |o| {
            o.lifetimes[2].writes_to_failure += 1
        }),
    ];
    for (workload, perturb) in perturbations {
        let oracle = sequential(workload, 5, Size::SMOKE, false);
        let mut run = execute(prepare(workload, 5, Size::SMOKE, false));
        let mut check = Check::new();
        check.run(&run, &oracle.observed);
        assert!(check.correct, "{} unperturbed", workload.name());
        assert_eq!(check.ok_share(), 1.0);

        perturb(&mut run.observed);
        let mut check = Check::new();
        check.run(&run, &oracle.observed);
        assert!(!check.correct, "{} perturbed", workload.name());
        assert_eq!(check.failed, check.attempted);
        assert_eq!(check.ok_share(), 0.0);
    }
}

#[test]
fn the_sequential_oracle_is_the_pipelines_stream_replay() {
    let seed = 7;
    let oracle = sequential(Workload::StreamVcc256, seed, Size::SMOKE, false);
    let mut p = pipeline(
        STREAM_TECHNIQUE,
        experiments::Scale::Tiny.pcm_config(seed),
        seed ^ 0x11FE,
        seed ^ 0xC0DE,
        Box::new(coset::cost::WriteEnergy::mlc()),
        false,
    );
    let memory = p.stream_replay(&mut stream_source(seed, Size::SMOKE));
    let unit = &oracle.observed.units[0];
    assert_eq!(memory, unit.memory);
    assert_eq!(*p.stats(), unit.pipeline);
    assert_eq!(*p.timing_stats(), unit.timing);
}

/// The decorators are encoders and correction schemes in their own right:
/// each must agree bit for bit with the object it wraps.
#[test]
fn decorators_forward_bit_identically() {
    use coset::cost::WriteEnergy;
    use experiments::Technique;
    use pcm::{LineWriteScratch, PcmMemory};
    use perfbench::traced::{TracedCorrection, TracedEncoder};
    use protect::CorrectionScheme;
    use rand::{Rng, SeedableRng};

    let techniques = [
        Technique::Unencoded,
        Technique::DbiFnw,
        Technique::Flipcy,
        Technique::VccGenerated { cosets: 64 },
        Technique::VccStored { cosets: 256 },
        Technique::Rcc { cosets: 256 },
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for technique in techniques {
        let config = experiments::Scale::Tiny.pcm_config(3);
        let plain = technique.encoder(5);
        let traced = TracedEncoder(technique.encoder(5));
        let (mut a, mut b) = (PcmMemory::new(config.clone()), PcmMemory::new(config));
        let (mut sa, mut sb) = (LineWriteScratch::new(), LineWriteScratch::new());
        let cost = WriteEnergy::mlc();
        for _ in 0..200 {
            let row = rng.gen_range(0..16u64);
            let line: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
            let oa = a.write_line_with(row, &line, plain.as_ref(), &cost, &mut sa);
            let ob = b.write_line_with(row, &line, &traced, &cost, &mut sb);
            assert_eq!(oa, ob, "{}", technique.name());
            assert_eq!(
                a.read_line(row, plain.as_ref()),
                b.read_line(row, &traced),
                "{}",
                technique.name()
            );
        }
        assert_eq!(a.stats(), b.stats(), "{}", technique.name());
    }

    for technique in [Technique::Secded, Technique::Ecp3, Technique::Unencoded] {
        let (plain, traced) = (
            technique.correction(),
            TracedCorrection(technique.correction()),
        );
        for _ in 0..500 {
            let saw: Vec<u32> = (0..8).map(|_| rng.gen_range(0..3)).collect();
            assert_eq!(plain.can_correct(&saw), traced.can_correct(&saw));
        }
        assert_eq!(plain.name(), traced.name());
        assert_eq!(
            plain.overhead_bits_per_word(),
            traced.overhead_bits_per_word()
        );
    }
}
