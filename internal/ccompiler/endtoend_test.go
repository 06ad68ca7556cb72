package ccompiler

import (
	"context"
	"math/cmplx"
	"math/rand"
	"os"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/tdl"
	"mealib/internal/units"
)

// TestSTAPEndToEnd is the paper's whole pitch in one test: the legacy C
// program is compiled by the source-to-source compiler, its generated plans
// are bound to MEALib buffers and executed on the simulated accelerator
// layer, and the numeric results match a direct reference computation.
func TestSTAPEndToEnd(t *testing.T) {
	syms := stapSymbols()
	nChan, nPulses, nRange := int(syms["N_CHAN"]), int(syms["N_PULSES"]), int(syms["N_RANGE"])
	nDop, nBlocks, nSteering := int(syms["N_DOP"]), int(syms["N_BLOCKS"]), int(syms["N_STEERING"])
	tdofNChan, tbs, cellDim := int(syms["TDOF_NCHAN"]), int(syms["TBS"]), int(syms["CELL_DIM"])

	src, err := os.ReadFile("testdata/stap.c")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(string(src), Options{Symbols: syms})
	if err != nil {
		t.Fatal(err)
	}

	rt, err := mealibrt.New(mealibrt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Allocate every compiler-discovered buffer through the MEALib memory
	// management runtime (what the rewritten mallocs would do).
	rng := rand.New(rand.NewSource(42))
	elems := map[string]int{
		"datacube":                    nChan * nPulses * nRange,
		"datacube_pulse_major_padded": nChan * nPulses * nRange,
		"datacube_doppler_major":      nChan * nPulses * nRange,
		"adaptive_weights":            nDop * nBlocks * nSteering * tdofNChan,
		"snapshots":                   nDop * nBlocks * cellDim,
		"prods":                       nDop * nBlocks * nSteering * tbs,
		"gamma_weight":                nDop * nBlocks * tdofNChan,
		"acc_weight":                  tdofNChan,
	}
	complexBuf := map[string]bool{
		"datacube": true, "datacube_pulse_major_padded": true,
		"datacube_doppler_major": true, "adaptive_weights": true,
		"snapshots": true, "prods": true,
	}
	binding := &Binding{
		Buffers: map[string]BoundBuffer{},
		Ints:    syms,
	}
	bufs := map[string]*mealibrt.Buffer{}
	data := map[string][]complex64{}
	fdata := map[string][]float32{}
	for name, n := range elems {
		size := units.Bytes(4 * n)
		if complexBuf[name] {
			size = units.Bytes(8 * n)
		}
		b, err := rt.MemAlloc(size)
		if err != nil {
			t.Fatalf("alloc %s: %v", name, err)
		}
		bufs[name] = b
		binding.Buffers[name] = BoundBuffer{PA: b.PA(), Elems: int64(n)}
		if complexBuf[name] {
			v := make([]complex64, n)
			for i := range v {
				v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
			}
			data[name] = v
			if err := b.StoreComplex64s(0, v); err != nil {
				t.Fatal(err)
			}
		} else {
			v := make([]float32, n)
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
			fdata[name] = v
			if err := b.StoreFloat32s(0, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Execute the three generated plans in program order.
	for _, plan := range res.Plans {
		tdlSrc, params, err := Bind(plan, binding)
		if err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		p, err := rt.AccPlan(tdlSrc, params)
		if err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		if _, err := p.Execute(context.Background()); err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		if err := p.Destroy(); err != nil {
			t.Fatal(err)
		}
	}

	// Reference computation in plain Go.
	// Plan 0: rank-0 guru copy = complex transpose N_RANGE x (N_PULSES*N_CHAN),
	// then batched FFT of length N_DOP over N_RANGE*N_CHAN transforms.
	rows, cols := nRange, nPulses*nChan
	wantPulse := make([]complex64, rows*cols)
	dc := data["datacube"]
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			wantPulse[j*rows+i] = dc[i*cols+j]
		}
	}
	wantDoppler := append([]complex64(nil), wantPulse...)
	plan, err := kernels.NewFFTPlan(nDop, kernels.Forward)
	if err != nil {
		t.Fatal(err)
	}
	if err := kernels.FFTBatch(plan, wantDoppler, nRange*nChan); err != nil {
		t.Fatal(err)
	}
	gotDoppler, err := bufs["datacube_doppler_major"].LoadComplex64s(0, len(wantDoppler))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantDoppler {
		if cmplx.Abs(complex128(gotDoppler[i]-wantDoppler[i])) > 1e-3 {
			t.Fatalf("doppler[%d] = %v, want %v", i, gotDoppler[i], wantDoppler[i])
		}
	}

	// Plan 1: 16K cdotc calls over the 4-level nest.
	weights := data["adaptive_weights"]
	snaps := data["snapshots"]
	gotProds, err := bufs["prods"].LoadComplex64s(0, elems["prods"])
	if err != nil {
		t.Fatal(err)
	}
	for dop := 0; dop < nDop; dop++ {
		for block := 0; block < nBlocks; block++ {
			for sv := 0; sv < nSteering; sv++ {
				for cell := 0; cell < tbs; cell++ {
					wOff := ((dop*nBlocks+block)*nSteering + sv) * tdofNChan
					sOff := (dop*nBlocks + block) * cellDim
					var want complex64
					for k := 0; k < tdofNChan; k++ {
						w := weights[wOff+k]
						s := snaps[sOff+cell+k*tbs]
						want += complex(real(w), -imag(w)) * s
					}
					pOff := ((dop*nBlocks+block)*nSteering+sv)*tbs + cell
					if cmplx.Abs(complex128(gotProds[pOff]-want)) > 1e-3 {
						t.Fatalf("prods[%d][%d][%d][%d] = %v, want %v",
							dop, block, sv, cell, gotProds[pOff], want)
					}
				}
			}
		}
	}

	// Plan 2: saxpy accumulation across the (dop, block) nest.
	wantAcc := append([]float32(nil), fdata["acc_weight"]...)
	gw := fdata["gamma_weight"]
	for dop := 0; dop < nDop; dop++ {
		for block := 0; block < nBlocks; block++ {
			off := (dop*nBlocks + block) * tdofNChan
			for k := 0; k < tdofNChan; k++ {
				wantAcc[k] += gw[off+k]
			}
		}
	}
	gotAcc, err := bufs["acc_weight"].LoadFloat32s(0, tdofNChan)
	if err != nil {
		t.Fatal(err)
	}
	for k := range wantAcc {
		if diff := gotAcc[k] - wantAcc[k]; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("acc_weight[%d] = %v, want %v", k, gotAcc[k], wantAcc[k])
		}
	}

	// Invocation accounting: 3 plans -> 3 invocations (the §5.5 compaction).
	if got := rt.Stats().Invocations; got != 3 {
		t.Errorf("invocations = %d, want 3", got)
	}
}

func TestBindErrors(t *testing.T) {
	res := compileSTAP(t)
	if _, _, err := Bind(res.Plans[0], nil); err == nil {
		t.Error("nil binding must fail")
	}
	if _, _, err := Bind(res.Plans[0], &Binding{Buffers: map[string]BoundBuffer{}, Ints: stapSymbols()}); err == nil {
		t.Error("unbound buffers must fail")
	}
	// Missing symbols fail too.
	b := &Binding{Buffers: map[string]BoundBuffer{"datacube": {}, "datacube_pulse_major_padded": {}, "datacube_doppler_major": {}}}
	if _, _, err := Bind(res.Plans[0], b); err == nil {
		t.Error("missing symbols must fail")
	}
}

// TestPaperScaleModelExecution binds the paper-scale STAP plans to nominal
// addresses and evaluates them analytically: a 16.8M-iteration LOOP
// descriptor models in microseconds of wall time and reports hours... of
// nothing — the right accelerator time for gigabytes of inner products.
func TestPaperScaleModelExecution(t *testing.T) {
	syms := map[string]int64{
		"N_CHAN": 8, "N_PULSES": 256, "N_RANGE": 4096, "N_DOP": 256,
		"N_BLOCKS": 16, "N_STEERING": 64, "TDOF": 4,
		"TDOF_NCHAN": 32, "TBS": 64, "CELL_DIM": 64 * 32,
		"NULL": 0, "FFTW_FORWARD": 0, "FFTW_WISDOM_ONLY": 0,
	}
	src, err := os.ReadFile("testdata/stap.c")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(string(src), Options{Symbols: syms})
	if err != nil {
		t.Fatal(err)
	}
	// Nominal physical placement (the model never dereferences).
	binding := &Binding{Buffers: map[string]BoundBuffer{}, Ints: syms}
	base := int64(0x1_0000_0000)
	for name := range res.Buffers {
		binding.Buffers[name] = BoundBuffer{PA: phys.Addr(base), Elems: 1 << 24}
		base += 1 << 28
	}
	layer, err := accel.NewLayer(accel.MEALibConfig())
	if err != nil {
		t.Fatal(err)
	}
	var comps int64
	var accelTime float64
	for _, plan := range res.Plans {
		tdlSrc, params, err := Bind(plan, binding)
		if err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		prog, err := tdl.Parse(tdlSrc)
		if err != nil {
			t.Fatal(err)
		}
		d, err := tdl.Compile(prog, tdl.MapResolver(params))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := layer.RunModel(d)
		if err != nil {
			t.Fatal(err)
		}
		comps += rep.Comps
		accelTime += float64(rep.Time)
	}
	if comps != res.Stats.CoveredCalls {
		t.Errorf("modelled activations %d != covered calls %d", comps, res.Stats.CoveredCalls)
	}
	// 16.8M cdotc of length 32 move ~17 GB: tens of milliseconds at
	// 510 GB/s, not seconds and not microseconds.
	if accelTime < 10e-3 || accelTime > 1 {
		t.Errorf("paper-scale accelerator time = %.3fs, expected tens of ms", accelTime)
	}
}
