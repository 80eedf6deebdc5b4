package microfi

import (
	"fmt"

	"gpurel/internal/device"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/mem"
	"gpurel/internal/sim"
)

// The Recorder must keep implementing the scheduler-trace shape the
// simulator exports; flow cannot import sim, so the structural contract is
// pinned here.
var _ sim.SchedTracer = (*flow.Recorder)(nil)

// StaticIntervals is the ACE-interval map of one job: the flow interval
// engine's per-site dead/live intervals of the register file and shared
// memory over the deterministic scheduled trace, the data record of every
// cache frame (when a flip into each word reaches a read), and the launch
// spans needed to scope queries to a kernel. Computed once per job by
// TraceStatic (one fault-free run) and shared by every injection
// thereafter.
type StaticIntervals struct {
	IV     *flow.Intervals
	Frames *sim.FrameRecord
	Spans  []sim.LaunchSpan
	Cycles int64
}

// TraceStatic runs the job fault-free with the flow interval recorder and
// the cache data record attached and returns the finalized static map.
func TraceStatic(job *device.Job, cfg gpu.Config) (*StaticIntervals, error) {
	rec := flow.NewRecorder()
	frames := &sim.FrameRecord{}
	res := sim.Run(job, cfg, sim.Options{SchedTrace: rec, Frames: frames})
	if res.Err != nil {
		return nil, fmt.Errorf("microfi: static interval trace failed: %w", res.Err)
	}
	if res.TimedOut {
		return nil, fmt.Errorf("microfi: static interval trace timed out")
	}
	return &StaticIntervals{IV: rec.Finalize(res.Cycles), Frames: frames, Spans: res.Spans, Cycles: res.Cycles}, nil
}

// Bounds returns the static AVF bracket for one structure over the
// injection windows of the named kernel (every launch when kernel is "").
// RF and SMEM are derived from the interval map, caches from the frame
// record; control state is outside the engine's reach and returns the
// trivial unsupported [0, 1] bracket.
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
	case gpu.L1D, gpu.L1T, gpu.L2:
		return cacheBounds(si.Frames.Logs(st), ws)
	}
	return flow.Bounds{Supported: false, Lower: 0, Upper: 1}
}

// cacheBounds is the static AVF bracket of a cache: Upper is the share of
// the injector's draws — a uniform cycle of the windows, a uniform byte
// over every copy of the cache — that land on a byte the golden run reads
// before its next kill. Every other draw is provably Masked (injectCache).
// Lower is 0.
func cacheBounds(logs []*mem.FrameLog, ws []flow.Window) flow.Bounds {
	var live, draws int64
	for _, l := range logs {
		for _, w := range ws {
			n, all := l.LiveCycles(w.Start+1, w.End+1)
			live += n
			draws += all
		}
	}
	if draws == 0 {
		return flow.Bounds{Supported: true}
	}
	return flow.Bounds{Supported: true, Upper: float64(live) / float64(draws)}
}
