// Cross-model outcome comparison: the fault-model extension of the paper's
// cross-layer methodology. Where the original study fixes the fault model
// (transient single-bit) and varies the abstraction layer, this table fixes
// the layer (microarchitectural) and varies the model — transient vs
// permanent stuck-at vs spatial multi-bit per storage array, and flip vs
// forced latch per control-state site — pooling outcome distributions
// (Masked/SDC/Timeout/DUE) over the Rodinia applications.
package gpurel

import (
	"fmt"

	"gpurel/internal/campaign"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/report"
)

// StorageFaultSpecs returns the fault-model set compared on every storage
// structure: the transient single-bit baseline, both stuck-at polarities,
// and a 2×2 spatial MBU cluster (2 adjacent bits in 2 adjacent rows — wide
// enough to escape SEC-DED, the pattern "The Anatomy of Silent Data
// Corruption" reports dominating field SDCs).
func StorageFaultSpecs() []faultmodel.Spec {
	return []faultmodel.Spec{
		{}, // transient single-bit (legacy default)
		{Model: faultmodel.ModelStuck, Stuck: faultmodel.Ptr(0)},
		{Model: faultmodel.ModelStuck, Stuck: faultmodel.Ptr(1)},
		{Model: faultmodel.ModelMBU, Width: 2, Lines: 2},
	}
}

// ControlFaultSpecs returns the model set compared on every control-state
// site: a transient latch flip and both permanently-forced polarities.
func ControlFaultSpecs() []faultmodel.Spec {
	return []faultmodel.Spec{
		{Model: faultmodel.ModelControl},
		{Model: faultmodel.ModelControl, Stuck: faultmodel.Ptr(0)},
		{Model: faultmodel.ModelControl, Stuck: faultmodel.Ptr(1)},
	}
}

// ModelOutcomeRow is one (structure, model) cell of the cross-model table:
// the outcome distributions pooled over the selected applications' kernels,
// on the unhardened (Tally) and TMR-hardened (Hardened) variants side by
// side, so cross-model results show protection effectiveness rather than
// raw outcome rates alone.
type ModelOutcomeRow struct {
	Structure string         `json:"structure"`
	Model     string         `json:"model"`
	Tally     campaign.Tally `json:"tally"`
	Hardened  campaign.Tally `json:"hardened"`
}

// FR returns the pooled failure rate of the row's unhardened campaigns.
func (r ModelOutcomeRow) FR() float64 { return r.Tally.FR() }

// FRHardened returns the pooled failure rate under TMR.
func (r ModelOutcomeRow) FRHardened() float64 { return r.Hardened.FR() }

// FaultModelTable measures the cross-model outcome table over the named
// applications (nil = all 11 benchmarks): every storage structure under
// StorageFaultSpecs and every control-state site under ControlFaultSpecs,
// each cell pooling the per-kernel campaigns of the selected apps. Row
// order is deterministic: structures in canonical order, models in spec
// order.
func (s *Study) FaultModelTable(appNames []string) ([]ModelOutcomeRow, error) {
	if appNames == nil {
		appNames = SortedAppNames()
	}
	var rows []ModelOutcomeRow
	pool := func(st gpu.Structure, fault faultmodel.Spec) error {
		row := ModelOutcomeRow{Structure: st.String(), Model: fault.Label()}
		for _, app := range appNames {
			a, err := kernels.ByName(app)
			if err != nil {
				return err
			}
			for _, k := range a.Kernels {
				spec := PointSpec{Layer: LayerMicro, App: app, Kernel: k, Structure: st, Fault: &fault}
				tl, err := s.Tally(spec)
				if err != nil {
					return fmt.Errorf("%s/%s %v %s: %w", app, k, st, fault.Label(), err)
				}
				row.Tally.Merge(tl)
				spec.Hardened = true
				if tl, err = s.Tally(spec); err != nil {
					return fmt.Errorf("%s/%s %v %s (TMR): %w", app, k, st, fault.Label(), err)
				}
				row.Hardened.Merge(tl)
			}
		}
		rows = append(rows, row)
		return nil
	}
	for _, st := range gpu.Structures {
		for _, fault := range StorageFaultSpecs() {
			if err := pool(st, fault); err != nil {
				return nil, err
			}
		}
	}
	for _, st := range gpu.ControlStructures {
		for _, fault := range ControlFaultSpecs() {
			if err := pool(st, fault); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// FaultModelFigure is FaultModelTable in the study's figure idiom: the rows
// plus a paper-style text table.
func (s *Study) FaultModelFigure(appNames []string) ([]ModelOutcomeRow, string, error) {
	rows, err := s.FaultModelTable(appNames)
	if err != nil {
		return nil, "", err
	}
	tbl := report.Table{
		Title:  "Cross-model outcome distributions (micro layer, pooled over apps)",
		Header: []string{"Structure", "Model", "n", "Masked", "SDC", "Timeout", "DUE", "FR", "TMR SDC", "TMR FR"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Structure, r.Model, fmt.Sprintf("%d", r.Tally.N),
			report.Pct(r.Tally.Pct(faults.Masked)), report.Pct(r.Tally.Pct(faults.SDC)),
			report.Pct(r.Tally.Pct(faults.Timeout)), report.Pct(r.Tally.Pct(faults.DUE)),
			report.Pct(r.Tally.FR()),
			report.Pct(r.Hardened.Pct(faults.SDC)), report.Pct(r.Hardened.FR()))
	}
	return rows, tbl.String(), nil
}
