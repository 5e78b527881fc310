#!/usr/bin/env bash
# Run every workload in turn and print each one's metrics:
#   bash perfbench/run_all.sh --seed 1 --seconds 30 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
for workload in small_batch large_sparse cli_roundtrip; do
    python3 "$here/run.py" --workload "$workload" "$@"
done
