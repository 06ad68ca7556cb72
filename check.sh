#!/bin/sh
# check.sh — the full local gate: build, vet, lint (cmd/mealint, whose rules
# analyzer holds the architecture rules: one op table, one executor, one
# fan-out, one codec and the rest, each a typed row with a fixture), the
# test suite under the race detector, then a traced bench/ run compared
# against the committed BENCH_BASELINE.json. CI and pre-commit both run
# exactly this; a clean exit here means the tree is submittable.
set -eu
cd "$(dirname "$0")"

# One cleanup handler for every temporary directory the gates below create:
# registering a second `trap ... EXIT` silently replaces the first, so each
# gate appends to this list instead of installing its own trap.
tmpdirs=""
cleanup() {
	# shellcheck disable=SC2086 # word-splitting the list is the point
	[ -n "$tmpdirs" ] && rm -rf $tmpdirs
}
trap cleanup EXIT

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l . (every Go file as gofmt prints it)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "check.sh: gofmt would rewrite the files above; run gofmt -w on them" >&2
	exit 1
fi

echo "==> go run ./cmd/mealint ./... (the analyzers and the architecture rules, the rules analyzer's table, over every package and the nested bench/ module)"
go run ./cmd/mealint ./...

echo "==> go test -race ./... (the gates: bit-identity, nest verdicts and ranges, fixed costs, the compiled plan, the one launch record, the one-walk install, the mealibd wire, fusion traffic and the model calibration; each test that carries one says so in its comment, \"Gate (check.sh): ...\", and Runtime.CheckInvariants closes the mealibrt and mealibd tests)"
go test -race ./...

echo "==> one-allocation launch gate (without the race detector, whose sync.Pool drops a quarter of its Puts: an Execute allocates its Invocation and nothing else, a run of a compiled program nothing at all, an install no more than its bounds, the verifier's reading as much for eight passes as for one, a kernel below its fan-out threshold nothing, and a power-of-two FFT batch above it only its chunk closure)"
go test -count=1 -run 'FixedCost' ./internal/mealibrt ./internal/accel ./internal/analysis/tdlcheck
go test -count=1 -run '^(TestKernelsInlineAllocateNothing|TestFFTBatchFanOutAllocatesOnce)$' ./internal/kernels

echo "==> core-count gate (the first bad SPMV column named, the bits of every kernel that fans out, the DOT block body against its core, and a nest's windows run in one fan-out failing first in program order are the same at any GOMAXPROCS)"
go test -count=1 -cpu 1,2,3 -run '^(TestSpmvFirstBadColumnAnyProcs|TestDotBitsAnyProcs|TestParallelReduceBitIdentical)$' ./internal/kernels
go test -count=1 -cpu 1,2,3 -run '^(TestDotBlockIsCore|TestMergedNestFailsFirst)$' ./internal/accel

echo "==> FuzzDifferential, 5 s (internal/accel's bit-identity matrix: generated descriptors through every worker, fusion, window and compiled cell, the traced ones held to the scoreboard's windows and waves)"
go test -run '^$' -fuzz '^FuzzDifferential$' -fuzztime 5s ./internal/accel

echo "==> FuzzReadFrame, 5 s (a frame header is a claim: what ReadFrame allocates follows the bytes that arrive)"
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 5s ./internal/mealibd

echo "==> FuzzStridedExtent, 5 s (span.Strided.Extent against the exact math/big extent)"
go test -run '^$' -fuzz '^FuzzStridedExtent$' -fuzztime 5s ./internal/span

echo "==> FuzzSpmvSemiring, 5 s (row pointers and column indices are tenant bytes: the SPMV kernel never panics and matches the scalar loop bit for bit)"
go test -run '^$' -fuzz '^FuzzSpmvSemiring$' -fuzztime 5s ./internal/kernels

echo "==> FuzzFFT, 5 s (lengths up to 4096 and finite inputs up to 2^20: the two-stage float32 FFT never panics and stays within 1e-6 relative RMS of the one-stage loop it replaced)"
go test -run '^$' -fuzz '^FuzzFFT$' -fuzztime 5s ./internal/kernels

echo "==> BenchmarkLowerLoop smoke (one launch of each nest on the range path and on the scoreboard path; it fails if a nest is on the wrong one)"
go test -run '^$' -bench BenchmarkLowerLoop -benchtime 1x ./internal/accel

echo "==> bench module (nested; go test ./... at the root does not reach it)"
(cd bench && go vet ./... && go test ./...)

echo "==> mealint flag smoke (-analyzers filter, -json output)"
test "$(go run ./cmd/mealint -analyzers addrflow -json ./internal/phys)" = "[]"
test "$(go run ./cmd/mealint -analyzers rules -json ./internal/par ./internal/kernels)" = "[]"

echo "==> mealib-trace e2e smoke (traced micro AXPY, validated export)"
tracedir=$(mktemp -d)
tmpdirs="$tmpdirs $tracedir"
# The CLI validates the trace itself (monotone timestamps, matched B/E
# spans) and exits non-zero on a bad one; here we additionally check both
# artifacts landed with content.
go run ./cmd/mealib-trace -workload micro -op AXPY -out "$tracedir" >/dev/null
grep -q traceEvents "$tracedir/trace.json"
grep -q 'accel.launches' "$tracedir/metrics.json"

echo "==> benchmark gate (traced bench/ runs against BENCH_BASELINE.json: model time and energy, DRAM bytes, nodes, waves, fused groups must repeat exactly)"
benchdir=$(mktemp -d)
tmpdirs="$tmpdirs $benchdir"
# serve and graph are left out: their model energy depends on which flight
# retires first (bench/compare.go modelSlack), so a comparison of the tree
# with itself can read "worse". The other three repeat bit for bit. With
# GOMAXPROCS < 2 the benchmark refuses to run and the gate fails with it.
for w in launch_small loop_kernels pipeline; do
	bash bench/run.sh -workload "$w" -trace 1 -out "$benchdir/$w.json" >/dev/null
	# -compare exits non-zero when an exact metric got worse. One that got
	# better is still a baseline that no longer describes the tree.
	status=0
	bash bench/run.sh -compare BENCH_BASELINE.json "$benchdir/$w.json" >"$benchdir/$w.cmp" || status=$?
	cat "$benchdir/$w.cmp"
	if [ "$status" -ne 0 ] || grep ' better$' "$benchdir/$w.cmp" >/dev/null; then
		echo "check.sh: $w disagrees with BENCH_BASELINE.json; fix the regression, or re-record the baseline (EXPERIMENTS.md) if the change is meant" >&2
		exit 1
	fi
done

echo "==> benchmark gate self-test (a seeded +64 B accel.dram_bytes must fail the comparison)"
awk '/"accel\.dram_bytes":/ { printf "          \"accel.dram_bytes\": %.4f,\n", $2 + 64; next } { print }' \
	"$benchdir/loop_kernels.json" >"$benchdir/seeded.json"
if bash bench/run.sh -compare BENCH_BASELINE.json "$benchdir/seeded.json" >/dev/null; then
	echo "check.sh: the benchmark gate let a seeded accel.dram_bytes regression through" >&2
	exit 1
fi

echo "check.sh: all gates passed"
