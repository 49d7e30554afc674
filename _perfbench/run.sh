#!/usr/bin/env bash
# Builds the benchmark from the source in the current checkout and runs it
# with the given arguments, e.g.
#
#   bash _perfbench/run.sh --workload churn-steady --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary and
# the traced runs' spans all go under .bench_build, so nothing outside the
# checkout is written. Build output goes to standard error; the last line
# of standard output is the result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d .git ]; then
	PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
(cd "$root/_perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --digests "$root/_perfbench/digests.json" "$@"
