// Package ace implements ACE (Architecturally Correct Execution) analysis
// for the register file — the analytical alternative to statistical fault
// injection that the paper's §I cites (Mukherjee et al., MICRO-36).
//
// A register-file bit is ACE during the interval from a write until its last
// read before the next write (or deallocation): a particle strike in that
// interval changes an architecturally required value. The ACE-based AVF of
// the register file is the fraction of bit-cycles that are ACE:
//
//	AVF_ACE(RF) = Σ ACE intervals / (RF bits × total cycles)
//
// The analyzer needs a single fault-free run — no injection campaign —
// making it the fast end of the accuracy/speed spectrum the paper
// discusses. Its intervals are the register-file live intervals that
// flow.Recorder records from the simulator's schedule trace, the same record
// liveness pruning reads. Classical ACE analysis is known to over-estimate
// AVF relative to fault injection (it cannot see logical masking: a
// corrupted value that is read but does not change the output still counts
// as ACE); the AnalyzeRF helper reports both numbers so the gap is
// measurable.
package ace

import (
	"fmt"

	"gpurel/internal/device"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/sim"
)

// Result reports one ACE analysis.
type Result struct {
	// AVFACE is the analytical register-file AVF.
	AVFACE float64
	// ACECycles is the summed ACE register-cycles.
	ACECycles int64
	// Cycles is the run length.
	Cycles int64
}

// AnalyzeRF runs the job once under the schedule trace and returns the
// analytical register-file AVF: the summed live intervals over the register
// file's size times the run length. (Every bit of a register shares its
// word-granularity liveness, so bits cancel out.) Compare against the
// statistical AVF-RF from internal/microfi: ACE needs one run instead of
// thousands but cannot model logical masking, so it upper-bounds the
// injection-based estimate.
func AnalyzeRF(job *device.Job, cfg gpu.Config) (*Result, error) {
	iv, err := trace(job, cfg)
	if err != nil {
		return nil, err
	}
	r := &Result{ACECycles: iv.RFLiveCycles(), Cycles: iv.Cycles}
	if r.Cycles > 0 {
		totalRegCycles := float64(int64(cfg.NumSMs)*int64(cfg.RFRegsPerSM)) * float64(r.Cycles)
		r.AVFACE = float64(r.ACECycles) / totalRegCycles
	}
	return r, nil
}

// trace runs the job fault-free with flow's recorder on the schedule trace
// and returns the finalized interval map.
func trace(job *device.Job, cfg gpu.Config) (*flow.Intervals, error) {
	rec := flow.NewRecorder()
	res := sim.Run(job, cfg, sim.Options{SchedTrace: rec})
	if res.Err != nil {
		return nil, fmt.Errorf("ace: golden run failed: %w", res.Err)
	}
	if res.TimedOut {
		return nil, fmt.Errorf("ace: golden run timed out")
	}
	return rec.Finalize(res.Cycles), nil
}
