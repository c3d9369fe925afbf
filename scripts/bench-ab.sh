#!/usr/bin/env bash
# Same-host A/B of the end-to-end benchmark (BENCHMARK.json): the working
# tree against a base revision, in alternating order.
#
# Usage, from anywhere inside the repository:
#
#     scripts/bench-ab.sh <base-rev> <workload> <pairs> [first-seed]
#
# The base is a local `git clone --shared` of this repository under
# target/ab-base, checked out detached at <base-rev> (the clone is reused,
# and moved to <base-rev>, on later calls; it borrows this repository's
# objects and adds nothing to its .git). Each side builds, through run.py,
# with its own CARGO_TARGET_DIR (target/ab-base-build,
# target/ab-head-build). Pair i runs seed first-seed + i (first-seed
# defaults to 1) on both sides with
# `python3 crates/perfbench/run.py --seconds 25 --trace 0`, the base first
# on even pairs and the head first on odd ones, so drift on the host hits
# both sides alike.
#
# Prints each pair's lines_per_cpu_s, both medians with their quartiles,
# and how many pairs the head won, and appends the same as one JSON line to
# bench/history.jsonl: both sides' commits and source digests (from
# run.py's stamp line), the host, the workload, per-pair values, medians,
# quartiles, wins and the sim check. Exits non-zero if a run fails, if a
# run reports `correct: false`, or if any sim_* metric or ok_share differs
# between the two sides for a seed (the history line is written first).
# Needs no network; writes only under target/ (run outputs, stamp lines
# included: target/ab-runs/) and to bench/history.jsonl.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: $0 <base-rev> <workload> <pairs> [first-seed]" >&2
    exit 2
fi
base_rev=$1 workload=$2 pairs=$3 first_seed=${4:-1}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

base_dir="$root/target/ab-base"
commit="$(git rev-parse --verify "$base_rev^{commit}")"
if [[ ! -e "$base_dir/.git" ]]; then
    git clone --quiet --shared --no-checkout "$root" "$base_dir"
fi
git -C "$base_dir" checkout --quiet --force --detach "$commit"
echo "base $base_rev = $commit in $base_dir" >&2

declare -A side_dir=([base]="$base_dir" [head]="$root")

runs="$root/target/ab-runs/$workload-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$runs"
run() { # <side> <seed>
    CARGO_TARGET_DIR="$root/target/ab-$1-build" python3 "${side_dir[$1]}/crates/perfbench/run.py" \
        --workload "$workload" --seed "$2" --seconds 25 --trace 0 >"$runs/$1-$2.out"
}
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do
        run "$side" "$seed"
    done
    echo "pair $((i + 1))/$pairs seed $seed done (${order[0]} first)" >&2
done

python3 - "$runs" "$workload" "$first_seed" "$pairs" "$base_rev" "$root/bench/history.jsonl" <<'EOF'
import datetime
import json
import os
import statistics
import sys

runs, workload, first_seed, pairs, base_rev, history = sys.argv[1:]
first_seed, pairs = int(first_seed), int(pairs)
stamps = {}


def load(side, seed):
    with open(f"{runs}/{side}-{seed}.out") as f:
        lines = f.read().splitlines()
    for line in lines:
        if line.startswith('{"stamp":'):
            stamps.setdefault(side, json.loads(line)["stamp"])
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return result["correct"], metrics


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


print(f"{workload}: base {base_rev} vs working tree, {pairs} pairs, lines_per_cpu_s")
print(f"{'seed':>6} {'base':>10} {'head':>10} {'change':>8}")
base_speed, head_speed, mismatches, wins, per_pair = [], [], [], 0, []
for seed in range(first_seed, first_seed + pairs):
    (base_ok, base), (head_ok, head) = load("base", seed), load("head", seed)
    for side, ok in (("base", base_ok), ("head", head_ok)):
        if not ok:
            mismatches.append(f"seed {seed}: {side} run reports correct: false")
    b, h = base["lines_per_cpu_s"], head["lines_per_cpu_s"]
    base_speed.append(b)
    head_speed.append(h)
    wins += h > b
    per_pair.append({"seed": seed, "base": b, "head": h})
    print(f"{seed:>6} {b:>10.0f} {h:>10.0f} {h / b - 1:>+8.1%}")
    for name in sorted(base):
        if (name.startswith("sim_") or name == "ok_share") and base[name] != head.get(name):
            mismatches.append(f"seed {seed}: {name} base {base[name]} head {head.get(name)}")

for label, values in (("base", base_speed), ("head", head_speed)):
    q1, med, q3 = spread(values)
    print(f"{label} median {med:.0f} [q1 {q1:.0f} - q3 {q3:.0f}]")
b_q1, b_med, b_q3 = spread(base_speed)
h_med = spread(head_speed)[1]
print(
    f"head won {wins}/{pairs} pairs; median change {h_med / b_med - 1:+.1%}; "
    f"median gap {h_med - b_med:.0f} vs base interquartile spread {b_q3 - b_q1:.0f}"
)


def side(name, values):
    stamp = stamps.get(name, {})
    q1, med, q3 = spread(values)
    return {
        "commit": stamp.get("commit"),
        "source_sha256": stamp.get("source_sha256"),
        "median": med,
        "q1": q1,
        "q3": q3,
    }


head_stamp = stamps.get("head", {})
entry = {
    "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "workload": workload,
    "metric": "lines_per_cpu_s",
    "seconds": 25,
    "host": {k: head_stamp.get(k) for k in ("cpu_model", "nproc", "rustc")},
    "base_rev": base_rev,
    "base": side("base", base_speed),
    "head": side("head", head_speed),
    "pairs": per_pair,
    "wins": wins,
    "median_change": h_med / b_med - 1,
    "sim_check": "identical" if not mismatches else mismatches,
}
os.makedirs(os.path.dirname(history), exist_ok=True)
with open(history, "a") as f:
    f.write(json.dumps(entry) + "\n")
print(f"appended to {history}")
if mismatches:
    print("incorrect runs or sim_*/ok_share differences:", *mismatches, sep="\n  ")
    sys.exit(1)
print("every run correct; sim_* and ok_share identical for every seed")
EOF
