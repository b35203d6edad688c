#!/bin/sh
# The whole benchmark from one command: every workload untraced, then
# traced, each in its own process; every metric printed by name with its
# unit. Extra arguments go to nekbench (--smoke, --aa, --seed N, --out FILE).
# Run from the repository root.
set -eu
exec cargo run --release --offline --quiet -p nekbench -- --seed 146 "$@"
