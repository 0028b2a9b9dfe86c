#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. From the
# repository root:
#
#   bash dgcbench/run.sh --workload rmi|cycles|heap --seed N --seconds S --trace 0|1
#
# The Go build cache, the binary and the traced runs' spans all stay under
# .bench_build/ in the checkout. Outside a complete checkout (no ../go.mod
# for the replace directive) the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/dgcbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/dgcbench" && go build -trimpath -o "$out/dgcbench" .)
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
cd "$root"
DGCBENCH_COMMIT="$commit" exec "$out/dgcbench" "$@"
