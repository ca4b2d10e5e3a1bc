#!/usr/bin/env bash
# Builds the benchmark and the atcserve/atcstatic binaries it drives from the
# checkout's own source, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it builds or writes stays under .bench_build/ at the checkout
# root. Without the repository's source next to it the build fails, and so
# does the run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$out/bin"
(cd "$root" && go build -o "$out/bin/" ./cmd/atcserve ./cmd/atcstatic) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
