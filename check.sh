#!/bin/sh
# check.sh — the full local gate: build, vet, lint (cmd/mealint), the test
# suite under the race detector, then a traced bench/ run compared against
# the committed BENCH_BASELINE.json. CI and pre-commit both run exactly
# this; a clean exit here means the tree is submittable.
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

echo "==> go run ./cmd/mealint ./..."
go run ./cmd/mealint ./...

echo "==> op-table gate (what an opcode is lives in internal/accel/optable.go only)"
if grep -rnE 'case descriptor\.Op' --include='*.go' internal/accel internal/analysis/tdlcheck internal/ccompiler |
	grep -v '_test\.go:' | grep -v '^internal/accel/optable\.go:'; then
	echo "check.sh: a per-opcode switch grew back outside the op table" >&2
	exit 1
fi

echo "==> one-executor gate (every LOOP lowers through the plan IR in windows)"
if grep -rnE 'streamWalk|interpretStream|runLoop|loopIndependent|SpanStream|planMaxNodes' --include='*.go' internal |
	grep -v '_test\.go:'; then
	echo "check.sh: a second executor or an expansion cap grew back" >&2
	exit 1
fi

echo "==> one-tenant gate (the default tenant is a Session; the runtime alone keeps the ordering rule)"
if grep -nE 'hostAccess\(|sess [!=]= nil|[!=]= defaultTenant' internal/mealibrt/*.go | grep -v '_test\.go:' ||
	grep -nE 'awaitConflicting|awaitPlanFinished|sc\.outstanding' internal/mealibd/*.go | grep -v '_test\.go:'; then
	echo "check.sh: a branch on the default tenant, the fail-fast link check or mealibd's shadow queue grew back" >&2
	exit 1
fi

echo "==> one-launch-record gate (a launch is one record from Accept to retirement; the registry of accepted launches is the only ledger of DRAM ownership)"
if grep -nE 'type (waiter|flight|PendingInvocation) |LinkController|AcquireShared|ReleaseShared' \
	internal/mealibrt/*.go internal/accel/*.go internal/mealibd/*.go | grep -v '_test\.go:'; then
	echo "check.sh: a second per-launch type or the link controller's ledger grew back" >&2
	exit 1
fi

echo "==> one-walk gate (install reads a descriptor once: one parser of the instruction region, one verifier entry, one encoder)"
if grep -nE 'tdlcheck\.(Writes|Reads|ExposedReads)\(' internal/mealibrt/*.go internal/mealibd/*.go | grep -v '_test\.go:' ||
	grep -n 'phys\.NewSpace' internal/descriptor/*.go | grep -v '_test\.go:' ||
	grep -rn 'case descriptor\.KindEndPass' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/mealibd/proto\.go:'; then
	echo "check.sh: a second reading of the descriptor at install, a scratch space in the encoder or a second parser of the instruction region grew back" >&2
	exit 1
fi

echo "==> one-extent gate (where a strided LOOP operand goes over the nest is computed once, in checked arithmetic, in internal/span)"
if grep -rnE 'Extend\(|nestExtent|intervalFits|stridedSpan' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/span/'; then
	echo "check.sh: a second strided-extent implementation grew back outside internal/span" >&2
	exit 1
fi

echo "==> one-price gate (a plan's report is priced once: the scheduler builds none, and runOOC keeps no model timeline)"
if grep -nE 'Report|merge\(' internal/accel/sched.go ||
	awk '/^func \(r \*Runtime\) runOOC\(/,/^}/' internal/mealibrt/ooc.go |
	grep -nE 'units\.|\.Time\b|StagingCost|DescriptorSetupLatency|Merge\(|NewReport'; then
	echo "check.sh: a launch builds a report again, or runOOC regained a model-time variable" >&2
	exit 1
fi

echo "==> one-admission-rule gate (a launch that conflicts with a flight waits in admission for the whole flight; no second admission path)"
if grep -rnE 'flightGate|WaveHooks|waveSpansOf|olderWritesLocked|WithWavePipelining' --include='*.go' . ||
	grep -rnw 'WavePipeline' --include='*.go' . | grep -v '^\./bench/' |
	grep -vE '^\./internal/mealibrt/runtime\.go:[0-9]+:	WavePipeline bool$'; then
	echo "check.sh: wave pipelining, its hooks or a reader of Config.WavePipeline grew back" >&2
	exit 1
fi

echo "==> one-clock gate (the runtime bills host idle from its frontier alone, and a serially reused resource on the model clock is a units.Timeline)"
if grep -rnE 'idleWindows|idleIvl|billedIdle|egressFree|ingressFree|egressBusy|inLink|outLink|accelT' --include='*.go' . | grep -v '_test\.go:'; then
	echo "check.sh: a union of billed idle windows or a serial-link ledger of its own grew back" >&2
	exit 1
fi

echo "==> one-fan-out gate (internal/par is the one fan-out: it alone asks runtime.GOMAXPROCS, and outside it a go statement starts only a flight, the OOC prefetch and mealibd's connections)"
# bench/ is the benchmark harness, which sizes and drives its own clients;
# testdata holds the analyzers' fixtures.
if grep -rn 'runtime\.GOMAXPROCS' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/par|bench)/' ||
	grep -rnE '(^|[^[:alnum:]_."])go (func|[[:alpha:]_][[:alnum:]_.]*\()' --include='*.go' . | grep -v '_test\.go:' | grep -v '/testdata/' |
	grep -vE '^\./(internal/par/|internal/mealibrt/(runtime|ooc)\.go:|internal/mealibd/server\.go:|cmd/mealibd/|bench/)'; then
	echo "check.sh: a fan-out of its own or a runtime.GOMAXPROCS call grew back outside internal/par" >&2
	exit 1
fi

echo "==> one-codec gate (float32, complex64 and int32 share one typed view, load, store and wire encoding: internal/phys's View[T], Load[T], Store[T], Encode and Decode)"
if grep -rnwE 'ViewFloat32s|ViewComplex64s|ViewInt32s|Float32View|Complex64View|Int32View|f32sOf|c64sOf|i32sOf|F32ToBytes|BytesToF32|C64ToBytes|BytesToC64|I32ToBytes|BytesToI32|getF32|getC64' --include='*.go' . |
	grep -v '_test\.go:'; then
	echo "check.sh: a per-type view, element codec or scratch getter grew back" >&2
	exit 1
fi

echo "==> go test -race ./... (the gates: bit-identity, nest verdicts and ranges, fixed costs, the compiled plan, the one launch record, the one-walk install, the mealibd wire, fusion traffic and the model calibration; each test that carries one says so in its comment, \"Gate (check.sh): ...\", and Runtime.CheckInvariants closes the mealibrt and mealibd tests)"
go test -race ./...

echo "==> one-allocation launch gate (without the race detector, whose sync.Pool drops a quarter of its Puts: an Execute allocates its Invocation and nothing else of its own, a run of a compiled program nothing at all, beyond the kernels' closures)"
go test -count=1 -run 'FixedCost' ./internal/mealibrt ./internal/accel

echo "==> core-count gate (the first bad SPMV column named and the bits of every kernel that fans out are the same at any GOMAXPROCS)"
go test -count=1 -cpu 1,2,3 -run '^(TestSpmvFirstBadColumnAnyProcs|TestDotBitsAnyProcs|TestParallelReduceBitIdentical)$' ./internal/kernels

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
