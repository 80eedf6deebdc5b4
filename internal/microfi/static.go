package microfi

import (
	"fmt"

	"gpurel/internal/device"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/sim"
)

// The Recorder must keep implementing the scheduler-trace shape the
// simulator exports; flow cannot import sim, so the structural contract is
// pinned here.
var _ sim.SchedTracer = (*flow.Recorder)(nil)

// StaticIntervals is the ACE-interval map of one job: the flow interval
// engine's per-site dead/live intervals over the deterministic scheduled
// trace, plus the launch spans needed to scope queries to a kernel.
// Computed once per job by TraceStatic (one fault-free run) and shared by
// every injection thereafter.
type StaticIntervals struct {
	IV     *flow.Intervals
	Spans  []sim.LaunchSpan
	Cycles int64
}

// TraceStatic runs the job fault-free with the flow interval recorder
// attached and returns the finalized static interval map.
func TraceStatic(job *device.Job, cfg gpu.Config) (*StaticIntervals, error) {
	rec := flow.NewRecorder()
	res := sim.Run(job, cfg, sim.Options{SchedTrace: rec})
	if res.Err != nil {
		return nil, fmt.Errorf("microfi: static interval trace failed: %w", res.Err)
	}
	if res.TimedOut {
		return nil, fmt.Errorf("microfi: static interval trace timed out")
	}
	return &StaticIntervals{IV: rec.Finalize(res.Cycles), Spans: res.Spans, Cycles: res.Cycles}, nil
}

// Bounds returns the static AVF bracket for one structure over the
// injection windows of the named kernel (every launch when kernel is "").
// RF and SMEM are derived from the interval map; caches and control state
// are outside the engine's reach and return the trivial unsupported [0, 1]
// bracket.
func (si *StaticIntervals) Bounds(st gpu.Structure, kernel string) flow.Bounds {
	var ws []flow.Window
	for _, s := range si.Spans {
		if kernel == "" || s.Kernel == kernel {
			ws = append(ws, flow.Window{Start: s.Start, End: s.End})
		}
	}
	switch st {
	case gpu.RF:
		return si.IV.RFBounds(ws)
	case gpu.SMEM:
		return si.IV.SmemBounds(ws)
	}
	return flow.Bounds{Supported: false, Lower: 0, Upper: 1}
}
