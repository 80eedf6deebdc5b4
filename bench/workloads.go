package main

import (
	"gpurel"
	"gpurel/internal/faultmodel"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
	"gpurel/internal/softfi"
)

// workload is one closed-loop campaign mix. The in-process workloads walk
// their points round-robin, slice runs per point per pass, through the exact
// closure the CLIs, gpureld and fleet workers execute:
// Study.PointExperiment driven by campaign.RunRange with Workers: 1.
type workload struct {
	name string
	why  string
	// checkpoint is the study-wide fork-and-join spec (zero = brute force).
	checkpoint microfi.CheckpointSpec
	// denseSnaps, when > 0, overrides the stride per app to golden
	// cycles / denseSnaps under the same default budget.
	denseSnaps int64
	points     []gpurel.PointSpec
	// slice is the number of runs each point contributes to one pass. It is
	// calibrated so a pass takes a few hundred milliseconds at the seed
	// commit: short enough that a run holds tens of passes, long enough that
	// every pass sees every point.
	slice int
	// daemon marks the control-plane workload, which has its own driver.
	daemon bool
}

var forkJoin = microfi.CheckpointSpec{Stride: microfi.AutoStride, Converge: true}

func appKernels(names ...string) []gpurel.KernelID {
	var out []gpurel.KernelID
	for _, a := range kernels.All() {
		for _, n := range names {
			if a.Name != n {
				continue
			}
			for _, k := range a.Kernels {
				out = append(out, gpurel.KernelID{App: a.Name, Kernel: k})
			}
		}
	}
	return out
}

func allKernels() []gpurel.KernelID {
	var names []string
	for _, a := range kernels.All() {
		names = append(names, a.Name)
	}
	return appKernels(names...)
}

func microPoints(ks []gpurel.KernelID, sts []gpu.Structure, fault *faultmodel.Spec) []gpurel.PointSpec {
	var out []gpurel.PointSpec
	for _, k := range ks {
		for _, st := range sts {
			out = append(out, gpurel.PointSpec{Layer: gpurel.LayerMicro, App: k.App, Kernel: k.Kernel, Structure: st, Fault: fault})
		}
	}
	return out
}

func softPoints(ks []gpurel.KernelID, hardened bool) []gpurel.PointSpec {
	var out []gpurel.PointSpec
	for _, k := range ks {
		for _, m := range []softfi.Mode{softfi.SVF, softfi.SVFLD} {
			out = append(out, gpurel.PointSpec{Layer: gpurel.LayerSoft, App: k.App, Kernel: k.Kernel, Mode: m, Hardened: hardened})
		}
	}
	return out
}

func stuck(v int) *faultmodel.Spec { return &faultmodel.Spec{Model: faultmodel.ModelStuck, Stuck: &v} }

// workloads lists the six workloads in the order a full set runs them. The
// names are fixed: later issues cite them.
func workloads() []*workload {
	persistentApps := appKernels("SRADv1", "LUD", "VA")
	persistent := append(microPoints(persistentApps, []gpu.Structure{gpu.RF, gpu.L2}, stuck(0)),
		microPoints(persistentApps, []gpu.Structure{gpu.RF, gpu.L2}, stuck(1))...)
	latched := stuck(1)
	latched.Model = faultmodel.ModelControl // forced latch: persistent like the stuck cells
	persistent = append(persistent, microPoints(persistentApps,
		[]gpu.Structure{gpu.Sched, gpu.Stack, gpu.Barrier}, latched)...)

	return []*workload{
		{
			name: "avf_brute",
			why:  "brute-force micro injection, no checkpoints: sim/uop/mem do all the work, the bypass workload for every snapshot optimisation",
			points: microPoints(appKernels("SRADv1", "HotSpot", "LUD", "BFS"),
				[]gpu.Structure{gpu.RF, gpu.SMEM, gpu.L1D, gpu.L2}, nil),
			slice: 1,
		},
		{
			name:       "avf_forkjoin",
			why:        "production fork-and-join path over all 23 kernels x 5 structures: the AVF half of the paper's study, the number users wait for",
			checkpoint: forkJoin,
			points:     microPoints(allKernels(), gpu.Structures[:], nil),
			slice:      4,
		},
		{
			name:       "avf_dense",
			why:        "same path on a 256-snapshot grid near the memory budget: restore and join compares dominate, capture cost shows in setup_s",
			checkpoint: forkJoin,
			denseSnaps: 256,
			points:     microPoints(appKernels("SRADv1", "LUD", "BFS"), []gpu.Structure{gpu.RF, gpu.L1D}, nil),
			slice:      16,
		},
		{
			name:       "avf_persistent",
			why:        "stuck-at and control faults with checkpoints on: forks happen, joins are withheld, EachCycle defeats idle-skip",
			checkpoint: forkJoin,
			points:     persistent,
			slice:      1,
		},
		{
			name: "svf_soft",
			why:  "software-level injection on all 11 apps plus TMR variants: funcsim/softfi/harden only, the bypass workload for every cycle-simulator change",
			points: append(softPoints(allKernels(), false),
				softPoints(appKernels("VA", "SCP", "PathFinder"), true)...),
			slice: 2,
		},
		{
			name:   "daemon_fleet",
			why:    "scheduler + coordinator + HTTP + 2 workers over loopback, 2 closed-loop clients on cheap jobs: leases, journals and streams are a large share",
			daemon: true,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
