// Package kernels provides the 11 benchmark applications (23 kernels) of the
// paper's evaluation (§II-D): ports of the CUDA SDK and Rodinia workloads to
// the simulator's ISA, with host-side setup, schedules, and reference
// checkers. Inputs are deterministic (seeded) and scaled down so that
// thousands of statistical fault-injection runs stay tractable, but each
// port keeps the original kernel decomposition, shared-memory usage,
// control structure and arithmetic.
package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gpurel/internal/device"
	"gpurel/internal/isa"
)

// App is one benchmark application.
type App struct {
	Name string
	// Kernels lists the kernel names (K1, K2, ...) in the paper's order.
	Kernels []string
	// Build constructs the job: device image, schedule, outputs.
	Build func() *device.Job
	// Check validates the fault-free output bytes against a host-side
	// reference implementation (approximately, for float outputs).
	Check func(out []byte) error
}

// All returns the 11 applications in the order of Figure 1.
func All() []App {
	return []App{
		SRADv1(),
		SRADv2(),
		KMeans(),
		HotSpot(),
		LUD(),
		SCP(),
		VA(),
		NW(),
		PathFinder(),
		BackProp(),
		BFS(),
	}
}

// ByName returns the app with the given name.
func ByName(name string) (App, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("unknown benchmark %q", name)
}

// CheckKernel returns an error unless name is empty (the whole application)
// or one of the app's kernels.
func (a App) CheckKernel(name string) error {
	if name == "" || slices.Contains(a.Kernels, name) {
		return nil
	}
	return fmt.Errorf("%s has no kernel %q", a.Name, name)
}

// MemCapacity is the device memory size given to every app.
const MemCapacity = 1 << 22 // 4 MiB

// param value helpers: a launch parameter is either a device pointer (which
// the TMR transform rebases per replica) or a plain scalar.

type pv struct {
	v   uint32
	ptr bool
}

func ptr(a uint32) pv   { return pv{v: a, ptr: true} }
func val(i int32) pv    { return pv{v: uint32(i)} }
func fval(f float32) pv { return pv{v: math.Float32bits(f)} }
func uval(u uint32) pv  { return pv{v: u} }

func params(vals ...pv) ([]uint32, []bool) {
	ps := make([]uint32, len(vals))
	isPtr := make([]bool, len(vals))
	for i, p := range vals {
		ps[i] = p.v
		isPtr[i] = p.ptr
	}
	return ps, isPtr
}

// launch1D builds a 1D launch descriptor.
func launch1D(prog *isa.Program, name string, grid, block, smem int, vals ...pv) *device.Launch {
	ps, isPtr := params(vals...)
	return &device.Launch{
		Kernel: prog, KernelName: name,
		GridX: grid, GridY: 1, BlockX: block, BlockY: 1,
		SmemBytes: smem, Params: ps, ParamIsPtr: isPtr,
	}
}

// launch2D builds a 2D launch descriptor.
func launch2D(prog *isa.Program, name string, gx, gy, bx, by, smem int, vals ...pv) *device.Launch {
	ps, isPtr := params(vals...)
	return &device.Launch{
		Kernel: prog, KernelName: name,
		GridX: gx, GridY: gy, BlockX: bx, BlockY: by,
		SmemBytes: smem, Params: ps, ParamIsPtr: isPtr,
	}
}

// randFloats returns n floats in [lo, hi) from a fixed-seed source.
func randFloats(seed int64, n int, lo, hi float32) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = lo + rng.Float32()*(hi-lo)
	}
	return out
}

// randInts returns n ints in [lo, hi) from a fixed-seed source.
func randInts(seed int64, n int, lo, hi int32) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = lo + rng.Int31n(hi-lo)
	}
	return out
}

// checkFloats compares got (raw bytes) against want with relative tolerance.
func checkFloats(got []byte, want []float32, tol float64) error {
	if len(got) != 4*len(want) {
		return fmt.Errorf("output size %d, want %d", len(got), 4*len(want))
	}
	for i, w := range want {
		g := math.Float32frombits(uint32(got[4*i]) | uint32(got[4*i+1])<<8 |
			uint32(got[4*i+2])<<16 | uint32(got[4*i+3])<<24)
		d := math.Abs(float64(g - w))
		if d > tol*math.Max(1, math.Abs(float64(w))) {
			return fmt.Errorf("output[%d] = %g, want %g", i, g, w)
		}
	}
	return nil
}

// checkInts compares got (raw bytes) against want exactly.
func checkInts(got []byte, want []int32) error {
	if len(got) != 4*len(want) {
		return fmt.Errorf("output size %d, want %d", len(got), 4*len(want))
	}
	for i, w := range want {
		g := int32(uint32(got[4*i]) | uint32(got[4*i+1])<<8 |
			uint32(got[4*i+2])<<16 | uint32(got[4*i+3])<<24)
		if g != w {
			return fmt.Errorf("output[%d] = %d, want %d", i, g, w)
		}
	}
	return nil
}

// sliceCheck chains checkers over consecutive regions of the output bytes.
type sliceCheck struct {
	off int
	err error
}

func (s *sliceCheck) floats(out []byte, want []float32, tol float64) {
	if s.err != nil {
		return
	}
	n := 4 * len(want)
	if s.off+n > len(out) {
		s.err = fmt.Errorf("output too short at offset %d", s.off)
		return
	}
	s.err = checkFloats(out[s.off:s.off+n], want, tol)
	s.off += n
}

func (s *sliceCheck) ints(out []byte, want []int32) {
	if s.err != nil {
		return
	}
	n := 4 * len(want)
	if s.off+n > len(out) {
		s.err = fmt.Errorf("output too short at offset %d", s.off)
		return
	}
	s.err = checkInts(out[s.off:s.off+n], want)
	s.off += n
}
