#!/bin/sh
# Runs every workload, checks outputs and prints every metric by name with
# its unit. Arguments are passed on: --workload NAME, --seed N, --seconds S,
# --trace.
exec cargo run --release --manifest-path "$(dirname "$0")/Cargo.toml" -- run "$@"
