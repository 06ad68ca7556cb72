package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KiB, "1KiB"},
		{3 * MiB, "3MiB"},
		{GiB, "1GiB"},
		{GiB + 512*MiB, "1.50GiB"},
		{1536, "1.50KiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestHertz(t *testing.T) {
	if got := (3.5 * GHz).String(); got != "3.50GHz" {
		t.Errorf("3.5GHz renders as %q", got)
	}
	if got := (800 * MHz).String(); got != "800.0MHz" {
		t.Errorf("800MHz renders as %q", got)
	}
	p := (1 * GHz).period()
	if math.Abs(float64(p)-1e-9) > 1e-18 {
		t.Errorf("1GHz period = %v, want 1ns", p)
	}
	if (Hertz(0)).period() != 0 {
		t.Error("zero frequency must have zero period, not Inf")
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{0, "0s"},
		{5e-9, "5.00ns"},
		{3e-6, "3.00us"},
		{7e-3, "7.00ms"},
		{2.5, "2.500s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Seconds(%g).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestEnergyAndPower(t *testing.T) {
	e := Watts(20).Energy(0.5)
	if math.Abs(float64(e)-10) > 1e-12 {
		t.Errorf("20W for 0.5s = %v J, want 10", float64(e))
	}
	if got := Joules(0.002).String(); got != "2.00mJ" {
		t.Errorf("2mJ renders as %q", got)
	}
	if got := Watts(23.85).String(); got != "23.85W" {
		t.Errorf("23.85W renders as %q", got)
	}
}

func TestBandwidth(t *testing.T) {
	bw := GBps(25.6)
	if math.Abs(bw.GBs()-25.6) > 1e-12 {
		t.Errorf("GBps round trip: %v", bw.GBs())
	}
	tt := bw.Time(Bytes(25.6e9))
	if math.Abs(float64(tt)-1) > 1e-9 {
		t.Errorf("moving 25.6GB at 25.6GB/s = %v, want 1s", tt)
	}
	if BytesPerSec(0).Time(GiB) != 0 {
		t.Error("zero bandwidth must yield zero (sentinel) time, not Inf")
	}
}

func TestFlopsRate(t *testing.T) {
	r := GFlops(112)
	if math.Abs(r.G()-112) > 1e-12 {
		t.Errorf("GFlops round trip: %v", r.G())
	}
	if got := r.String(); got != "112.00GFLOPS" {
		t.Errorf("rate renders as %q", got)
	}
}

func TestEDP(t *testing.T) {
	if got := EDP(2, 3); math.Abs(got-6) > 1e-12 {
		t.Errorf("EDP(2J,3s) = %v, want 6", got)
	}
}

func TestGFlopsPerWatt(t *testing.T) {
	if got := GFlopsPerWatt(GFlops(40), 20); math.Abs(got-2) > 1e-12 {
		t.Errorf("40GFLOPS at 20W = %v GFLOPS/W, want 2", got)
	}
	if GFlopsPerWatt(GFlops(40), 0) != 0 {
		t.Error("zero power must yield 0, not Inf")
	}
}

func TestPropertyEnergyLinearInTime(t *testing.T) {
	f := func(p float64, t1, t2 float64) bool {
		p = math.Abs(math.Mod(p, 1000))
		t1 = math.Abs(math.Mod(t1, 1000))
		t2 = math.Abs(math.Mod(t2, 1000))
		w := Watts(p)
		sum := w.Energy(Seconds(t1)) + w.Energy(Seconds(t2))
		both := w.Energy(Seconds(t1 + t2))
		return math.Abs(float64(sum-both)) <= 1e-6*(1+math.Abs(float64(both)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyBandwidthTimeMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Bytes(a), Bytes(b)
		if x > y {
			x, y = y, x
		}
		bw := GBps(10)
		return bw.Time(x) <= bw.Time(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
