#!/usr/bin/env bash
# Runs the `run:` commands of .github/workflows/ci.yml locally, offline.
#
# Usage, from anywhere inside the repository:
#
#     scripts/ci-local.sh            # every job, in file order
#     scripts/ci-local.sh <job-id>   # one job, e.g. commit-oracle
#
# Each job's steps run in order from the repository root, each under
# `bash -e` as on the CI runner. The script stops and exits non-zero at the
# first failing step. Steps without a `run:` (checkout, toolchain, cache,
# artifact upload) have no local equivalent and are skipped.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workflow="$root/.github/workflows/ci.yml"

# One "<job-id><TAB><command>" line per `run:` step. Only single-line
# `run:` values are understood; a block scalar is reported, not guessed at.
steps="$(awk '
    /^jobs:/ { in_jobs = 1; next }
    in_jobs && /^  [A-Za-z0-9_-]+:[[:space:]]*$/ {
        job = $1; sub(/:$/, "", job); next
    }
    in_jobs && job != "" && /^[[:space:]]+(- )?run:/ {
        cmd = $0; sub(/^[[:space:]]+(- )?run:[[:space:]]*/, "", cmd)
        if (cmd == "|" || cmd == ">" || cmd == "") {
            printf "multi-line run: in job %s is not supported\n", job > "/dev/stderr"
            exit 1
        }
        printf "%s\t%s\n", job, cmd
    }
' "$workflow")"
jobs="$(cut -f1 <<<"$steps" | uniq)"

if [[ $# -gt 1 ]]; then
    echo "usage: $0 [job-id]" >&2
    exit 2
fi
if [[ $# -eq 1 ]] && ! grep -qx -- "$1" <<<"$jobs"; then
    echo "unknown job '$1'; jobs in $workflow:" >&2
    sed 's/^/  /' <<<"$jobs" >&2
    exit 2
fi

cd "$root"
while IFS=$'\t' read -r job cmd; do
    [[ $# -eq 1 && "$job" != "$1" ]] && continue
    echo "==> [$job] $cmd"
    if ! bash -e -c "$cmd"; then
        echo "FAILED: [$job] $cmd" >&2
        exit 1
    fi
done <<<"$steps"
echo "==> all selected CI steps passed"
