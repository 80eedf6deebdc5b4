package service

import (
	"gpurel"
	"gpurel/internal/campaign"
)

// NewStudySource adapts a *gpurel.Study into the scheduler's experiment
// source. The study builds each golden run a job needs (its variant —
// plain, TMR or selective — on the simulator it injects into) on first use
// and keeps it, so concurrent jobs targeting the same variant — or one job
// resumed many times — pay for golden-run construction once per daemon
// process, exactly like figures sharing campaigns in the paper's study.
func NewStudySource(st *gpurel.Study) SourceFunc {
	return func(spec JobSpec) (campaign.Experiment, error) {
		p, err := spec.Point()
		if err != nil {
			return nil, err
		}
		return st.PointExperiment(p)
	}
}

// SpecForPoint renders a study-level campaign point as a wire spec with the
// fully derived campaign seed — the inverse of JobSpec.Point, used by the
// client-side Study.RunPoint hook and by advise jobs for their children.
func SpecForPoint(p gpurel.PointSpec, opts campaign.Options) JobSpec {
	sp := JobSpec{
		Layer:    string(p.Layer),
		App:      p.App,
		Kernel:   p.Kernel,
		Hardened: p.Hardened,
		Runs:     opts.Runs,
		Seed:     opts.Seed,
	}
	switch p.Layer {
	case gpurel.LayerMicro:
		sp.Structure = p.Structure.String()
		if len(p.Harden) > 0 {
			sp.Harden = append([]string(nil), p.Harden...)
		}
	case gpurel.LayerSoft:
		sp.Mode = p.Mode.String()
	}
	if pol := p.Sampling; pol != nil {
		sp.Sampling = &SamplingSpec{Margin99: pol.Margin, Batch: pol.Batch}
	}
	if ck := p.Checkpoint; ck != nil {
		sp.Checkpoint = &SnapshotSpec{Stride: ck.Stride, BudgetMB: int(ck.BudgetBytes >> 20), Converge: ck.Converge}
	}
	if f := p.Fault; f != nil && !f.IsDefault() {
		fc := *f
		sp.Fault = &fc
	}
	return sp
}
