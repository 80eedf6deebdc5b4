// StudyBackend wires internal/advisor to the measurement stack: adaptive
// per-kernel campaigns for vulnerability, golden-run cycle counts for the
// cost model, flow liveness for static search hints, and a selective-job
// campaign for plan verification.
package gpurel

import (
	"context"
	"fmt"

	"gpurel/internal/advisor"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
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
	e, err := b.Study.Eval(app)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), e.App.Kernels...), nil
}

// PreRank implements advisor.PreRanker: the flow interval engine's static
// RF AVF bracket per kernel, from one fault-free traced run of the plain
// job (cached on the AppEval) — no injection campaigns. The runner uses it
// to measure the statically most-exposed kernels first; it cannot change
// the plan, which is a pure function of the complete measurement maps.
func (b *StudyBackend) PreRank(ctx context.Context, app string) ([]advisor.StaticRank, error) {
	e, err := b.Study.Eval(app)
	if err != nil {
		return nil, err
	}
	si, err := e.plain.intervals()
	if err != nil {
		return nil, err
	}
	ranks := make([]advisor.StaticRank, 0, len(e.App.Kernels))
	for _, k := range e.App.Kernels {
		bd := si.Bounds(gpu.RF, k)
		ranks = append(ranks, advisor.StaticRank{Kernel: k, Lower: bd.Lower, Upper: bd.Upper})
	}
	return ranks, nil
}

// Measure runs the plain and hardened campaigns for one kernel and derives
// its weight and TMR cycle multiplier from the golden runs. The static hint
// is the kernel's mean live-register pressure from flow liveness: kernels
// holding more live state per instruction expose more architecturally
// correctable bits, so they are tried earlier on ties.
func (b *StudyBackend) Measure(ctx context.Context, app, kernel string) (advisor.KernelMeasure, error) {
	e, err := b.Study.Eval(app)
	if err != nil {
		return advisor.KernelMeasure{}, err
	}
	plain, _, err := b.Study.KernelAVF(app, kernel, false)
	if err != nil {
		return advisor.KernelMeasure{}, err
	}
	hard, _, err := b.Study.KernelAVF(app, kernel, true)
	if err != nil {
		return advisor.KernelMeasure{}, err
	}
	w, wh := e.plain.cycles(kernel), e.tmr.cycles(kernel)
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
		Hint:        kernelHint(e, kernel),
	}, nil
}

// kernelHint scores a kernel by its mean live-in register count per
// instruction (0 when the kernel is not found — hints only order the
// search, they never gate it).
func kernelHint(e *AppEval, kernel string) float64 {
	for _, st := range e.Job.Steps {
		if st.Launch == nil || st.Launch.Name() != kernel {
			continue
		}
		lv := flow.Build(st.Launch.Kernel).Liveness()
		n := len(st.Launch.Kernel.Code)
		if n == 0 {
			return 0
		}
		live := 0
		for pc := 0; pc < n; pc++ {
			live += len(lv.In(pc).Regs())
		}
		return float64(live) / float64(n)
	}
	return 0
}

// Cost prices protecting exactly one kernel: the golden-run cycle overhead
// of Selective({kernel}) minus one — replicated execution of that kernel
// plus the final output vote.
func (b *StudyBackend) Cost(ctx context.Context, app, kernel string) (float64, error) {
	o, err := b.Study.SelectiveOverhead(app, []string{kernel})
	if err != nil {
		return 0, err
	}
	return o - 1, nil
}

// FullOverhead measures the full-TMR cycle overhead of the app.
func (b *StudyBackend) FullOverhead(ctx context.Context, app string) (float64, error) {
	e, err := b.Study.Eval(app)
	if err != nil {
		return 0, err
	}
	return float64(e.MicroGTMR.Res.Cycles) / float64(e.MicroG.Res.Cycles), nil
}

// Verify runs the verification campaign on the selectively hardened job:
// per-kernel chip AVFs on the planned variant, weighted by the selective
// golden run — the same app-AVF methodology every other campaign uses, so
// all fault models and the fleet path apply unchanged.
func (b *StudyBackend) Verify(ctx context.Context, app string, protect []string) (advisor.Verification, error) {
	s := b.Study
	e, err := s.Eval(app)
	if err != nil {
		return advisor.Verification{}, err
	}
	total, parts, runs, err := s.appAVF(PointSpec{Layer: LayerMicro, App: app, Harden: protect}, gpu.Structures[:])
	if err != nil {
		return advisor.Verification{}, fmt.Errorf("verify %s: %w", app, err)
	}
	v := advisor.Verification{SDC: total.SDC, TotalRuns: runs, PerKernel: map[string]float64{}}
	for i, k := range e.App.Kernels {
		v.PerKernel[k] = parts[i].SDC
	}
	v.Overhead, err = s.SelectiveOverhead(app, protect)
	return v, err
}
