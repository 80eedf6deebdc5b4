// Selective-hardening measurement entry points: the study-level API over
// harden.Selective that the advisor (internal/advisor) drives. A protection
// set is an ordinary PointSpec.Harden; AppEval.resolve canonicalises it, so
// the boundary sets are the plain and TMR campaigns — same seeds, same memo
// slots, same golden runs.
package gpurel

import (
	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/metrics"
	"gpurel/internal/microfi"
)

// SelectiveEval returns (building and caching on first use) the selectively
// hardened job and its golden run for a protection set, canonicalised at the
// boundaries: the empty set yields the plain state and a covering set the
// TMR state of the app's evaluation.
func (s *Study) SelectiveEval(appName string, protect []string) (*device.Job, *microfi.GoldenRun, error) {
	_, v, err := s.resolve(PointSpec{Layer: LayerMicro, App: appName, Harden: protect})
	if err != nil {
		return nil, nil, err
	}
	return v.Job, v.MicroG, nil
}

// SelectiveOverhead measures the golden-run cycle overhead of protecting
// the given kernel subset: cycles(Selective(job, set)) / cycles(job). The
// empty set returns exactly 1; a covering set returns the full-TMR
// overhead.
func (s *Study) SelectiveOverhead(appName string, protect []string) (float64, error) {
	e, err := s.Eval(appName)
	if err != nil {
		return 0, err
	}
	_, g, err := s.SelectiveEval(appName, protect)
	if err != nil {
		return 0, err
	}
	return float64(g.Res.Cycles) / float64(e.MicroG.Res.Cycles), nil
}

// AppAVFSelective measures the application AVF of the selectively hardened
// variant: per-kernel chip AVFs weighted by the kernels' cycle shares of
// the selective golden run — the quantity the advisor verifies against the
// SDC budget (its SDC component).
func (s *Study) AppAVFSelective(appName string, protect []string) (metrics.Breakdown, error) {
	b, _, _, err := s.appAVF(PointSpec{Layer: LayerMicro, App: appName, Harden: protect}, gpu.Structures[:])
	return b, err
}
