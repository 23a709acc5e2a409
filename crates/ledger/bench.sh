#!/bin/sh
# Entry point of BENCHMARK.json: build symbi-ledger from the checkout this is
# run in (its root is the working directory), then measure one workload.
#
#   sh crates/ledger/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# The last line of standard output is the result object; cargo and failed
# checks write to standard error.
set -eu
root=$(pwd)
target=${CARGO_TARGET_DIR:-target}

# The workspace's external crates (bytes, crossbeam, parking_lot, rand, and
# the dev-only proptest and criterion) are not in the container's registry;
# the checkout carries API-compatible stand-ins under .devstubs for offline
# builds. Where it does not, cargo resolves them the usual way.
if [ -d "$root/.devstubs" ]; then
    stub() { printf 'patch.crates-io.%s.path="%s/.devstubs/%s"' "$1" "$root" "$1"; }
    cargo build --release --offline --manifest-path "$root/Cargo.toml" -p symbi-ledger \
        --config "$(stub bytes)" --config "$(stub crossbeam)" \
        --config "$(stub parking_lot)" --config "$(stub rand)" \
        --config "$(stub proptest)" --config "$(stub criterion)" >&2
else
    cargo build --release --manifest-path "$root/Cargo.toml" -p symbi-ledger >&2
fi
exec "$target/release/symbi-ledger" bench "$@"
