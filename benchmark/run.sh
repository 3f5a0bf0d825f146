#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ inside the checkout (go's build cache is kept there too, so
# nothing outside the checkout is written) and hands every argument to it.
# The harness itself builds nrp, nrpserve and nrprouter the same way before
# any clock starts. Run from anywhere; paths resolve from this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/bin/nrpbench" .)
exec "$out/bin/nrpbench" -root "$root" "$@"
