package workload

import (
	"fmt"

	"repro/internal/core"
)

// Benchmark is one modelled PARSEC/SPLASH-2x program.
type Benchmark struct {
	Name  string
	Suite string // "parsec" or "splash"
	// Paper reference values (Table 2): native run time in seconds,
	// system calls per second (thousands), sync ops per second
	// (thousands) — with four worker threads on the paper's testbed.
	PaperRunSec     float64
	PaperSyscallKps float64
	PaperSyncKps    float64
	// Shape names the sharing structure used by the model.
	Shape string
	shape func(shapeCfg) func(Params) core.Program
	cfg   shapeCfg
}

// Build instantiates the benchmark program.
func (b Benchmark) Build(p Params) core.Program {
	prog := b.shape(b.cfg)(p)
	prog.Name = b.Name
	return prog
}

// DefaultUnits is the benchmark's work-unit count when Params.Units is 0.
func (b Benchmark) DefaultUnits() int { return b.cfg.units }

// All returns the 25 modelled benchmarks (canneal and cholesky excluded,
// as in §5.1), in Table 2 order.
func All() []Benchmark {
	return registry
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns all benchmark names in order.
func Names() []string {
	names := make([]string, len(registry))
	for i, b := range registry {
		names[i] = b.Name
	}
	return names
}

// The shape parameters below are tuned so each model's sync-op and syscall
// rates relative to compute approximate the paper's Table 2 ratios: e.g.
// radiosity and fluidanimate are sync-dominated, dedup is both syscall- and
// sync-heavy, blackscholes/fft/radix/lu are nearly communication-free.
// Default Units give native runs of tens of milliseconds; the bench harness
// scales them with Params.
var registry = []Benchmark{
	// PARSEC 2.1
	{Name: "blackscholes", Suite: "parsec", PaperRunSec: 80.83, PaperSyscallKps: 2.55, PaperSyncKps: 0,
		Shape: "data-parallel", shape: dataParallel, cfg: shapeCfg{units: 8000, work: 400, syncEvery: 0, syscallEvery: 400, kernel: kernelBlackScholes}},
	{Name: "bodytrack", Suite: "parsec", PaperRunSec: 60.06, PaperSyscallKps: 8.59, PaperSyncKps: 202.36,
		Shape: "data-parallel", shape: dataParallel, cfg: shapeCfg{units: 8000, work: 300, syncEvery: 12, syscallEvery: 300, locks: 8, kernel: kernelBodytrack}},
	{Name: "dedup", Suite: "parsec", PaperRunSec: 18.29, PaperSyscallKps: 134.27, PaperSyncKps: 1052.45,
		Shape: "pipeline", shape: pipeline, cfg: shapeCfg{units: 4000, work: 120, stages: 4, syscallEvery: 6, kernel: kernelDedup}},
	{Name: "facesim", Suite: "parsec", PaperRunSec: 142.52, PaperSyscallKps: 4.14, PaperSyncKps: 288.75,
		Shape: "barrier-phased", shape: barrierPhased, cfg: shapeCfg{units: 8000, work: 300, stages: 24, syncEvery: 1, syscallEvery: 400, kernel: kernelFacesim}},
	{Name: "ferret", Suite: "parsec", PaperRunSec: 103.79, PaperSyscallKps: 2.29, PaperSyncKps: 225.10,
		Shape: "pipeline", shape: pipeline, cfg: shapeCfg{units: 4000, work: 250, stages: 6, syscallEvery: 300, kernel: kernelFerret}},
	{Name: "fluidanimate", Suite: "parsec", PaperRunSec: 93.19, PaperSyscallKps: 0.45, PaperSyncKps: 12746.59,
		Shape: "fine-grained", shape: fineGrained, cfg: shapeCfg{units: 60000, work: 25, locks: 256, syscallEvery: 8000, kernel: kernelWater}},
	{Name: "freqmine", Suite: "parsec", PaperRunSec: 168.66, PaperSyscallKps: 0.35, PaperSyncKps: 0.24,
		Shape: "data-parallel", shape: dataParallel, cfg: shapeCfg{units: 8000, work: 400, syncEvery: 2000, syscallEvery: 2000, kernel: kernelFreqmine}},
	{Name: "raytrace", Suite: "parsec", PaperRunSec: 147.54, PaperSyscallKps: 0.78, PaperSyncKps: 88.33,
		Shape: "task-queue", shape: taskQueue, cfg: shapeCfg{units: 6000, work: 350, syncEvery: 20, syscallEvery: 1500, kernel: kernelRaytrace}},
	{Name: "streamcluster", Suite: "parsec", PaperRunSec: 136.05, PaperSyscallKps: 5.63, PaperSyncKps: 18.78,
		Shape: "barrier-phased", shape: barrierPhased, cfg: shapeCfg{units: 8000, work: 300, stages: 32, syncEvery: 4, syscallEvery: 250, kernel: kernelStreamcluster}},
	{Name: "swaptions", Suite: "parsec", PaperRunSec: 86.68, PaperSyscallKps: 0.01, PaperSyncKps: 4585.65,
		Shape: "data-parallel", shape: dataParallel, cfg: shapeCfg{units: 40000, work: 40, syncEvery: 1, syscallEvery: 0, locks: 16, kernel: kernelSwaptions}},
	{Name: "vips", Suite: "parsec", PaperRunSec: 37.09, PaperSyscallKps: 15.76, PaperSyncKps: 428.69,
		Shape: "pipeline", shape: pipeline, cfg: shapeCfg{units: 5000, work: 150, stages: 3, syscallEvery: 40, kernel: kernelConvolve}},
	{Name: "x264", Suite: "parsec", PaperRunSec: 34.73, PaperSyscallKps: 0.50, PaperSyncKps: 15.98,
		Shape: "pipeline", shape: pipeline, cfg: shapeCfg{units: 3000, work: 400, stages: 3, syscallEvery: 1200, kernel: kernelConvolve}},

	// SPLASH-2x
	{Name: "barnes", Suite: "splash", PaperRunSec: 61.15, PaperSyscallKps: 19.61, PaperSyncKps: 5115.99,
		Shape: "task-queue", shape: taskQueue, cfg: shapeCfg{units: 30000, work: 40, syncEvery: 2, syscallEvery: 250, kernel: kernelNBody}},
	{Name: "fft", Suite: "splash", PaperRunSec: 40.26, PaperSyscallKps: 0.01, PaperSyncKps: 1.64,
		Shape: "barrier-phased", shape: barrierPhased, cfg: shapeCfg{units: 8000, work: 400, stages: 6, syncEvery: 0, syscallEvery: 0, kernel: kernelFFT}},
	{Name: "fmm", Suite: "splash", PaperRunSec: 42.68, PaperSyscallKps: 0.91, PaperSyncKps: 5215.01,
		Shape: "task-queue", shape: taskQueue, cfg: shapeCfg{units: 30000, work: 40, syncEvery: 2, syscallEvery: 4000, kernel: kernelNBody}},
	{Name: "lu_cb", Suite: "splash", PaperRunSec: 51.16, PaperSyscallKps: 0.08, PaperSyncKps: 0.23,
		Shape: "barrier-phased", shape: barrierPhased, cfg: shapeCfg{units: 8000, work: 400, stages: 8, syncEvery: 0, syscallEvery: 0, kernel: kernelLU}},
	{Name: "lu_ncb", Suite: "splash", PaperRunSec: 73.55, PaperSyscallKps: 0.05, PaperSyncKps: 0.16,
		Shape: "barrier-phased", shape: barrierPhased, cfg: shapeCfg{units: 8000, work: 450, stages: 8, syncEvery: 0, syscallEvery: 0, kernel: kernelLU}},
	{Name: "ocean_cp", Suite: "splash", PaperRunSec: 39.39, PaperSyscallKps: 1.21, PaperSyncKps: 5.05,
		Shape: "barrier-phased", shape: barrierPhased, cfg: shapeCfg{units: 8000, work: 350, stages: 16, syncEvery: 8, syscallEvery: 900, kernel: kernelOcean}},
	{Name: "ocean_ncp", Suite: "splash", PaperRunSec: 41.68, PaperSyscallKps: 1.08, PaperSyncKps: 4.55,
		Shape: "barrier-phased", shape: barrierPhased, cfg: shapeCfg{units: 8000, work: 350, stages: 16, syncEvery: 8, syscallEvery: 1000, kernel: kernelOcean}},
	{Name: "radiosity", Suite: "splash", PaperRunSec: 45.56, PaperSyscallKps: 33.42, PaperSyncKps: 18252.68,
		Shape: "task-queue", shape: taskQueue, cfg: shapeCfg{units: 60000, work: 15, syncEvery: 1, syscallEvery: 400, kernel: kernelRadiosity}},
	{Name: "radix", Suite: "splash", PaperRunSec: 18.22, PaperSyscallKps: 0.02, PaperSyncKps: 0.04,
		Shape: "barrier-phased", shape: barrierPhased, cfg: shapeCfg{units: 6000, work: 400, stages: 4, syncEvery: 0, syscallEvery: 0, kernel: kernelRadix}},
	{Name: "raytrace_sp", Suite: "splash", PaperRunSec: 52.52, PaperSyscallKps: 6.63, PaperSyncKps: 536.79,
		Shape: "task-queue", shape: taskQueue, cfg: shapeCfg{units: 10000, work: 150, syncEvery: 4, syscallEvery: 250, kernel: kernelRaytrace}},
	{Name: "volrend", Suite: "splash", PaperRunSec: 52.02, PaperSyscallKps: 15.86, PaperSyncKps: 1071.25,
		Shape: "task-queue", shape: taskQueue, cfg: shapeCfg{units: 15000, work: 90, syncEvery: 2, syscallEvery: 120, kernel: kernelVolrend}},
	{Name: "water_nsquared", Suite: "splash", PaperRunSec: 182.80, PaperSyscallKps: 0.88, PaperSyncKps: 8.61,
		Shape: "reduction", shape: reduction, cfg: shapeCfg{units: 8000, work: 400, syncEvery: 60, syscallEvery: 900, kernel: kernelWater}},
	{Name: "water_spatial", Suite: "splash", PaperRunSec: 59.84, PaperSyscallKps: 148.27, PaperSyncKps: 9.63,
		Shape: "reduction", shape: reduction, cfg: shapeCfg{units: 8000, work: 150, syncEvery: 80, syscallEvery: 3, kernel: kernelWater}},
}
