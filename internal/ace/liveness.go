package ace

import (
	"gpurel/internal/device"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
)

// Liveness is the register-file view of one fault-free run's interval map
// (flow.Intervals): whether a flip at an (SM, physical register, cycle) site
// can reach a read (LiveRF), and the allocated blocks the injector would
// enumerate at a cycle (RFBlocksAt). It is the evidence type of
// microfi.InjectPruned, which prunes exactly as microfi.InjectStatic does on
// the register file.
type Liveness struct{ *flow.Intervals }

// TraceRF runs the job fault-free under the schedule trace and returns its
// register-file liveness. The trace only observes, so the map is valid for
// any faulty run up to its injection cycle.
func TraceRF(job *device.Job, cfg gpu.Config) (*Liveness, error) {
	iv, err := trace(job, cfg)
	if err != nil {
		return nil, err
	}
	return &Liveness{iv}, nil
}
