#!/bin/sh
# CI gate: formatting, vet, build, race-enabled tests with a coverage floor
# (scripts/coverage_baseline.txt), a short fuzz smoke, the dynlint static
# analyzer (docs/static-analysis.md), and a single-iteration benchmark
# smoke (docs/performance.md). Run from anywhere inside the repository; any
# failure fails the build.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l . | grep -v '^\.' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== generated artifacts"
# Build outputs must never be committed: coverage profiles, flight
# recordings, compiled test binaries, pprof profiles. .gitignore keeps
# them out of "git add ."; this guard catches a force-add.
tracked=$(git ls-files -- 'coverage.out' '*.dsfr' '*.test' '*.prof' '*.pprof')
if [ -n "$tracked" ]; then
    echo "generated artifacts are tracked:" >&2
    echo "$tracked" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race (with coverage)"
go test -race -covermode=atomic -coverprofile=coverage.out ./...

echo "== coverage gate"
total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
baseline=$(cat scripts/coverage_baseline.txt)
echo "total coverage ${total}% (baseline ${baseline}%)"
awk -v t="$total" -v b="$baseline" 'BEGIN { exit !(t+0 >= b+0) }' || {
    echo "coverage ${total}% fell below the recorded baseline ${baseline}%" >&2
    exit 1
}

echo "== engine equivalence (workers matrix)"
# The determinism proof for the shard-parallel radio kernel: the
# equivalence suites must hold under -race at both a single-CPU schedule
# and a genuinely parallel one (docs/architecture.md, "Determinism by
# construction"). The tests sweep engine worker counts 1/2/3/8/NumCPU,
# and the EngineWorkers pattern pulls in TestEngineWorkersLargeSmoke —
# the fast n=200k sparse run that exercises the parallel deliver phase,
# counter RNG streams and Seq stitch at scale under the race detector.
for procs in 1 4; do
    echo "-- GOMAXPROCS=$procs"
    GOMAXPROCS="$procs" go test -race -run 'EngineEquivalence|EngineWorkers|RunByteIdentical' \
        ./internal/radio ./internal/broadcast
    # The scenario corpus re-runs every .dsn (testdata + examples) through
    # the live stack with record/replay self-verification — end-to-end
    # determinism under both schedules (docs/scenarios.md).
    GOMAXPROCS="$procs" go test -race -run 'TestScenarioCorpus|TestScenarioWorkerDeterminism' \
        ./internal/scenario
done

echo "== fuzz smoke"
# A few seconds per fuzzer: keeps the harnesses compiling and catches
# shallow regressions; long fuzz runs stay manual.
go test -run '^$' -fuzz '^FuzzNetioRead$' -fuzztime 5s ./internal/netio
go test -run '^$' -fuzz '^FuzzFrameDecode$' -fuzztime 5s ./internal/netio/frame
go test -run '^$' -fuzz '^FuzzRecordingDecode$' -fuzztime 5s ./internal/flight
go test -run '^$' -fuzz '^FuzzTreeOps$' -fuzztime 5s ./internal/graph
go test -run '^$' -fuzz '^FuzzEngineEquivalence$' -fuzztime 5s ./internal/radio
go test -run '^$' -fuzz '^FuzzScenarioParse$' -fuzztime 5s ./internal/scenario
# The go tool ignores testdata, so the lint fixtures only compile through
# the lint loader: run the loader test explicitly so fixtures can't bit-rot.
go test -run '^TestFixturesLoad$' -count=1 ./internal/lint

echo "== replay smoke"
# Record a 200-node run with mid-broadcast failures, then replay it
# offline: the paper-invariant verifier must pass and the Chrome trace
# export must be valid JSON (docs/observability.md, "Tracing & flight
# recording").
replay_dir=$(mktemp -d)
trap 'rm -rf "$replay_dir"' EXIT
go run ./cmd/dynsim -n 200 -side 10 -seed 7 -failfrac 0.1 -record "$replay_dir/run.dsfr" > /dev/null
go run ./cmd/nettool replay -chrome-trace "$replay_dir/trace.json" "$replay_dir/run.dsfr" | tee "$replay_dir/replay.txt"
grep -q 'verifier: PASS' "$replay_dir/replay.txt"
go run ./scripts/jsoncheck "$replay_dir/trace.json"

echo "== scenario smoke"
# One scenario recorded live, then re-verified offline from the .dsfr
# alone: the third entry point of the scenario DSL (after go test and
# dynsim -scenario). A negative fixture must fail with exit 1 — the
# corpus proves assertions can pass; this proves they can fail.
go build -o "$replay_dir/nettool" ./cmd/nettool
"$replay_dir/nettool" scenario run testdata/scenarios/positive/sparse-rgg-icff.dsn \
    -record "$replay_dir/scenario.dsfr" > /dev/null
"$replay_dir/nettool" scenario verify testdata/scenarios/positive/sparse-rgg-icff.dsn \
    "$replay_dir/scenario.dsfr" > /dev/null
if "$replay_dir/nettool" scenario run testdata/scenarios/negative/violated-round-bound.dsn > /dev/null; then
    echo "negative scenario fixture unexpectedly passed" >&2
    exit 1
fi
echo "scenario record/verify round-trip OK, negative fixture fails as expected"

echo "== dist runtime smoke"
# The distributed actor runtime must reproduce the kernel byte for byte
# (docs/architecture.md, "Distributed runtime"): run one corpus scenario
# under all three transports — in-process kernel, goroutine fleet, and one
# OS process per node via dnode — and require identical .dsfr recordings,
# then replay-verify the distributed recording offline like any other.
go build -o "$replay_dir/dynsim" ./cmd/dynsim
go build -o "$replay_dir/dnode" ./cmd/dnode
dist_dsn=testdata/scenarios/positive/dist-runtime-icff.dsn
"$replay_dir/dynsim" -scenario "$dist_dsn" -runtime kernel \
    -record "$replay_dir/dist_kernel.dsfr" > /dev/null
"$replay_dir/dynsim" -scenario "$dist_dsn" -runtime dist \
    -record "$replay_dir/dist_local.dsfr" > /dev/null
"$replay_dir/dynsim" -scenario "$dist_dsn" -dnode "$replay_dir/dnode" \
    -record "$replay_dir/dist_proc.dsfr" > /dev/null
cmp "$replay_dir/dist_kernel.dsfr" "$replay_dir/dist_local.dsfr"
cmp "$replay_dir/dist_kernel.dsfr" "$replay_dir/dist_proc.dsfr"
"$replay_dir/nettool" scenario verify "$dist_dsn" "$replay_dir/dist_proc.dsfr" > /dev/null
echo "kernel / goroutine-fleet / process-fleet recordings byte-identical"

echo "== dynlint"
# All analyzers, the contract checkers (progpurity/shardsafe/hotalloc)
# included: they are in lint.All, so the default run gates on them too.
go run ./cmd/dynlint ./...

echo "== bench smoke"
# One iteration of every benchmark, with the expensive all-pairs baselines
# skipped (-short): catches benchmarks that rot without paying for real
# measurement runs. scripts/bench.sh does the real runs.
go test -run '^$' -bench . -benchtime 1x -short ./...

echo "== bench regression gate"
# One small, fast EngineRun leg against the committed baseline
# (scripts/bench_baseline.json, regenerated with `nettool perf import`
# after an intentional perf change): warn past 15%, fail past 50% ns/op.
# The wide fail band absorbs CI host noise while still catching a kernel
# that got categorically slower (docs/performance.md, "Kernel
# introspection").
go test -run '^$' -bench '^BenchmarkEngineRun$/^n=2000$/^sparse$/^workers=1$' \
    -benchtime 5x ./internal/radio > "$replay_dir/bench_raw.txt"
go run ./cmd/nettool perf import -o "$replay_dir/bench_new.json" "$replay_dir/bench_raw.txt"
go run ./cmd/nettool perf diff -warn 15 -fail 50 \
    scripts/bench_baseline.json "$replay_dir/bench_new.json"

echo "CI OK"
