//! Shared helpers for the Criterion benchmark harness.
//!
//! Every bench target regenerates one of the paper's tables or figures: it
//! first prints the reproduced rows/series (so `cargo bench` output can be
//! compared against the paper directly) and then lets Criterion measure a
//! representative kernel of that experiment.
//!
//! The experiment scale defaults to [`Scale::Tiny`] so the full bench suite
//! completes quickly; set `VCC_BENCH_SCALE=small` (or `paper`) to rerun the
//! data-generation step at a larger scale.

#![forbid(unsafe_code)]

use experiments::Scale;

/// Scale used by the figure-regeneration step of each bench, taken from the
/// `VCC_BENCH_SCALE` environment variable (`tiny`, `small` or `paper`;
/// default `tiny`).
pub fn bench_scale() -> Scale {
    match std::env::var("VCC_BENCH_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "small" => Scale::Small,
        "paper" => Scale::Paper,
        _ => Scale::Tiny,
    }
}

/// Seed used by all benches so printed figures are reproducible.
pub const BENCH_SEED: u64 = 0xBE2C;

/// The host fingerprint stamped into every `BENCH_*.json` snapshot, as a
/// JSON object: CPU model, logical CPUs, rustc version and the commit the
/// tree is at, suffixed `-dirty` when tracked files differ from it (`null`
/// for what cannot be read). Numbers from two different
/// hosts are not comparable; the stamp says which host a snapshot is from.
pub fn host_stamp_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let rustc = output("rustc", &["--version"]);
    // A tree with uncommitted changes is marked: the numbers are then of
    // the working tree on top of that commit.
    let commit = output("git", &["rev-parse", "HEAD"]).map(|head| {
        let clean = output("git", &["status", "--porcelain", "--untracked-files=no"])
            .is_some_and(|changes| changes.is_empty());
        if clean {
            head
        } else {
            format!("{head}-dirty")
        }
    });
    let json = |v: Option<String>| match v {
        Some(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        None => "null".to_string(),
    };
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}}}",
        json(cpu),
        json(rustc),
        json(commit)
    )
}

/// Prints a figure banner followed by its rendered table.
pub fn print_figure(title: &str, body: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
    println!("{body}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_tiny() {
        // The environment variable is unset in the test environment.
        if std::env::var("VCC_BENCH_SCALE").is_err() {
            assert_eq!(bench_scale(), Scale::Tiny);
        }
    }
}
