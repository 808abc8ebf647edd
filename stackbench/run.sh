#!/usr/bin/env bash
# Builds stackbench and the campaignd it drives (release, offline), then runs
# it with the given arguments, e.g.
#
#   bash stackbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stackbench's last stdout line is its JSON
# result. Honours CARGO_TARGET_DIR (default: stackbench/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/stackbench" "$@"
