// Selective-hardening measurement entry points: the study-level API over
// harden.Selective that the advisor (internal/advisor) drives. A protection
// set is an ordinary PointSpec.Harden; AppEval.resolve canonicalises it, so
// the boundary sets are the plain and TMR campaigns — same seeds, same memo
// slots, same golden runs.
package gpurel

import (
	"fmt"

	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/metrics"
	"gpurel/internal/microfi"
)

// SelectiveOverhead measures the golden-run cycle overhead of protecting
// the given kernel subset: cycles(Selective(job, set)) / cycles(job). The
// empty set returns exactly 1 and a covering set the full-TMR overhead; a
// proper subset costs one fault-free run of its job, which is not kept — the
// advisor prices every subset, and a campaign on a subset builds its own
// checkpointed golden run when asked.
func (s *Study) SelectiveOverhead(appName string, protect []string) (float64, error) {
	e, err := s.app(appName, s.Checkpoint)
	if err != nil {
		return 0, err
	}
	for _, k := range protect {
		if err := e.App.CheckKernel(k); err != nil {
			return 0, err
		}
	}
	plain, err := e.plain.microG()
	if err != nil {
		return 0, err
	}
	set, g := harden.NewSet(protect...), plain
	switch {
	case set.Empty():
	case set.Covers(e.plain.job()):
		g, err = e.tmr.microG()
	default:
		if g, err = microfi.Golden(harden.Selective(e.plain.job(), set), e.cfg); err != nil {
			err = fmt.Errorf("%s+SEL(%s): %w", appName, set.Canonical(), err)
		}
	}
	if err != nil {
		return 0, err
	}
	return float64(g.Res.Cycles) / float64(plain.Res.Cycles), nil
}

// AppAVFSelective measures the application AVF of the selectively hardened
// variant: per-kernel chip AVFs weighted by the kernels' cycle shares of
// the selective golden run — the quantity the advisor verifies against the
// SDC budget (its SDC component).
func (s *Study) AppAVFSelective(appName string, protect []string) (metrics.Breakdown, error) {
	b, _, _, err := s.appAVF(PointSpec{Layer: LayerMicro, App: appName, Harden: protect}, gpu.Structures[:])
	return b, err
}
