// StudyBackend wires internal/advisor to the measurement stack: adaptive
// per-kernel campaigns for vulnerability, golden-run cycle counts of every
// protection subset for cost, and a selective-job campaign for plan
// verification.
package gpurel

import (
	"context"
	"fmt"

	"gpurel/internal/advisor"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
)

// StudyBackend implements advisor.Backend on top of a Study: every
// measurement is an ordinary study campaign (memoized, seeded, adaptive,
// fleet-distributable through Study.RunPoint), so advise runs inherit all
// execution policy — and determinism — from the study they wrap.
type StudyBackend struct {
	Study *Study
}

// Advise runs the full advisor loop for one app and budget on this study:
// measure, search, verify. The journaling hooks are exposed by using
// advisor.Runner directly; Advise is the plain blocking entry point the
// gpuharden CLI and tests use.
func (s *Study) Advise(appName string, budget float64) (*advisor.State, error) {
	r := &advisor.Runner{Backend: &StudyBackend{Study: s}, App: appName, Budget: budget}
	return r.Run(context.Background())
}

// Kernels lists the app's kernels in schedule order.
func (b *StudyBackend) Kernels(ctx context.Context, app string) ([]string, error) {
	a, err := kernels.ByName(app)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), a.Kernels...), nil
}

// Measure runs the plain and hardened campaigns for one kernel and derives
// its weight and TMR cycle multiplier from the golden runs.
func (b *StudyBackend) Measure(ctx context.Context, app, kernel string) (advisor.KernelMeasure, error) {
	plain, _, err := b.Study.KernelAVF(app, kernel, false)
	if err != nil {
		return advisor.KernelMeasure{}, err
	}
	hard, _, err := b.Study.KernelAVF(app, kernel, true)
	if err != nil {
		return advisor.KernelMeasure{}, err
	}
	g, _, err := b.Study.Golden(PointSpec{Layer: LayerMicro, App: app})
	if err != nil {
		return advisor.KernelMeasure{}, err
	}
	gh, _, err := b.Study.Golden(PointSpec{Layer: LayerMicro, App: app, Hardened: true})
	if err != nil {
		return advisor.KernelMeasure{}, err
	}
	w, wh := kernelCycles(g, kernel), kernelCycles(gh, kernel)
	mult := 1.0
	if w > 0 && wh > 0 {
		mult = wh / w
	}
	return advisor.KernelMeasure{
		Kernel:      kernel,
		Weight:      w,
		HardMult:    mult,
		SDC:         plain.SDC,
		SDCHardened: hard.SDC,
	}, nil
}

// Overhead prices a protection subset with one fault-free golden run of the
// selectively hardened job (Study.SelectiveOverhead).
func (b *StudyBackend) Overhead(ctx context.Context, app string, protect []string) (float64, error) {
	return b.Study.SelectiveOverhead(app, protect)
}

// Verify runs the verification campaign on the selectively hardened job:
// per-kernel chip AVFs on the planned variant, weighted by the selective
// golden run — the same app-AVF methodology every other campaign uses, so
// all fault models and the fleet path apply unchanged.
func (b *StudyBackend) Verify(ctx context.Context, app string, protect []string) (advisor.Verification, error) {
	ks, err := b.Kernels(ctx, app)
	if err != nil {
		return advisor.Verification{}, err
	}
	total, parts, runs, err := b.Study.appAVF(PointSpec{Layer: LayerMicro, App: app, Harden: protect}, gpu.Structures[:])
	if err != nil {
		return advisor.Verification{}, fmt.Errorf("verify %s: %w", app, err)
	}
	v := advisor.Verification{SDC: total.SDC, TotalRuns: runs, PerKernel: map[string]float64{}}
	for i, k := range ks {
		v.PerKernel[k] = parts[i].SDC
	}
	return v, nil
}
