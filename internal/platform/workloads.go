package platform

import (
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/sparse"
	"mealib/internal/units"
)

// DataSet describes one Table 2 evaluation data set.
type DataSet struct {
	Op       descriptor.OpCode
	Function string // the MKL API the op instantiates
	Descr    string // the paper's data-set description
	Load     Workload
}

// StandardDataSets reproduces Table 2 of the paper: the data set each
// accelerated function is evaluated on, converted to flop and byte counts.
func StandardDataSets() []DataSet {
	const (
		vecN   = 256 << 20 // 256M elements (1 GB of float32)
		matN   = 16384     // 16384 x 16384 (1 GB)
		fftN   = 8192      // 8192 x 8192 complex (512 MB)
		rggN   = 1 << 20   // rgg_n_2_20: 2^20 nodes
		rggDeg = 13        // ~13 edges per node in the UF matrix
		rsBlk  = 16384     // 16384 resampling blocks
		rsIn   = 4096
		rsOut  = 4096
	)
	rggNNZ := rggN * rggDeg
	fftPoints := fftN * fftN
	return []DataSet{
		{
			Op: descriptor.OpAXPY, Function: "cblas_saxpy()", Descr: "256M vector (1GB)",
			Load: Workload{Flops: kernels.SaxpyFlops(vecN), Bytes: kernels.SaxpyBytes(vecN)},
		},
		{
			Op: descriptor.OpDOT, Function: "cblas_sdot()", Descr: "256M vector (1GB)",
			Load: Workload{Flops: kernels.SdotFlops(vecN), Bytes: kernels.SdotBytes(vecN)},
		},
		{
			Op: descriptor.OpGEMV, Function: "cblas_sgemv()", Descr: "16384 x 16384 matrix (1GB)",
			Load: Workload{Flops: kernels.SgemvFlops(matN, matN), Bytes: kernels.SgemvBytes(matN, matN)},
		},
		{
			Op: descriptor.OpSPMV, Function: "mkl_scsrgemv()", Descr: "rgg_n_2_20 from UF SMC (synthetic RGG)",
			Load: Workload{Flops: kernels.SpmvFlops(rggNNZ), Bytes: kernels.SpmvBytes(rggN, rggNNZ)},
		},
		{
			Op: descriptor.OpRESMP, Function: "dfsInterpolate1D()", Descr: "16384 blocks",
			Load: Workload{
				Flops: units.Flops(rsBlk) * kernels.ResampleFlops(rsOut),
				Bytes: units.Bytes(rsBlk) * kernels.ResampleBytes(rsIn, rsOut),
			},
		},
		{
			Op: descriptor.OpFFT, Function: "fftwf_execute()", Descr: "8192 x 8192 matrix (512MB)",
			Load: Workload{
				Flops: kernels.FFTFlops(fftPoints),
				Bytes: kernels.FFTBytes(fftPoints, 1),
			},
		},
		{
			Op: descriptor.OpRESHP, Function: "mkl_simatcopy()", Descr: "16384 x 16384 matrix (1GB)",
			Load: Workload{Flops: 0, Bytes: kernels.TransposeBytes(matN, matN)},
		},
	}
}

// RGGGraph builds the synthetic stand-in for Table 2's rgg_n_2_20 graph:
// a random geometric graph adjacency matrix with the paper's node count
// and degree reachable as RGGGraph(1<<20, 13, seed).
//
// Determinism: sparse.RGG draws every node coordinate from a rand.Source
// seeded with the explicit seed argument and uses no other randomness —
// no map iteration in an order-sensitive position, no time-based seeding —
// so the same (n, avgDegree, seed) triple produces the same matrix on
// every run and platform. Graph benchmark results are reproducible bit
// for bit.
func RGGGraph(n int, avgDegree float64, seed int64) (*sparse.CSR, error) {
	return sparse.RGG(n, avgDegree, seed)
}

// StandardWorkloads indexes the Table 2 data sets by opcode.
func StandardWorkloads() map[descriptor.OpCode]Workload {
	out := make(map[descriptor.OpCode]Workload)
	for _, ds := range StandardDataSets() {
		out[ds.Op] = ds.Load
	}
	return out
}
