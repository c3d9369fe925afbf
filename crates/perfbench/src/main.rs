//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line with the host and the workload's inputs, detail lines
//! when traced, and as its last line the result JSON. Exits non-zero on bad
//! arguments.

use std::process::ExitCode;

use perfbench::workloads::{Size, Workload};
use perfbench::{end_to_end, host, per_layer};
use serde::json::Value;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let size = Size::full();
    let report = if args.trace {
        per_layer(args.workload, args.seed, args.seconds, size)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, size)
    };
    let stamp = Value::object()
        .with("cpu_model", Value::Str(host::cpu_model()))
        .with("nproc", Value::UInt(host::nproc() as u64))
        .with("trace", Value::Bool(args.trace))
        .with("seconds", Value::Num(args.seconds))
        .with("inputs", report.inputs.clone());
    println!("{}", Value::object().with("stamp", stamp).render());
    for line in &report.detail {
        println!("{}", line.render());
    }
    println!("{}", report.result_json().render());
    ExitCode::SUCCESS
}
