package gpurel

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"gpurel/internal/ace"
	"gpurel/internal/campaign"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/funcsim"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/metrics"
	"gpurel/internal/microfi"
	"gpurel/internal/propagate"
	"gpurel/internal/report"
	"gpurel/internal/reuse"
	"gpurel/internal/sim"
	"gpurel/internal/softfi"
	"gpurel/internal/trend"

	"math/rand"
)

// Record is one NDJSON line of machine-readable figure output (avfsvf
// -json): the figure name, the campaign sizing behind it, and the figure's
// data payload (the same result structs the gpureld service API serves).
type Record struct {
	Figure string `json:"figure"`
	// N is the per-point run budget the figure's campaigns were sized with.
	N int `json:"n"`
	// Margin99 is the a-priori worst-case (p=0.5) Wilson/normal 99% CI
	// half-width at N — ±2.35% at the paper's n=3000. Omitted when the
	// record carries no campaign data (N == 0).
	Margin99 float64 `json:"margin99,omitempty"`
	Data     any     `json:"data"`
}

// NewRecord builds a Record, deriving Margin99 from n (0 runs → no margin,
// not the +Inf sentinel WorstCaseMargin99 reports).
func NewRecord(figure string, n int, data any) Record {
	r := Record{Figure: figure, N: n, Data: data}
	if n > 0 {
		r.Margin99 = campaign.WorstCaseMargin99(n)
	}
	return r
}

// AppPoint is one application's AVF and SVF breakdowns (one bar pair of
// Figure 1 / 4 / 5).
type AppPoint struct {
	App      string
	AVF, SVF metrics.Breakdown
}

// appFigure measures one AVF-side and one SVF-side quantity per application
// and renders the bar pairs into t, SVF columns first: the body Figures 1, 4
// and 5 share. t arrives with its title, header and any footers.
func (s *Study) appFigure(t report.Table, avf, svf func(app string) (metrics.Breakdown, error)) ([]AppPoint, string, error) {
	var pts []AppPoint
	for _, a := range s.Apps() {
		p := AppPoint{App: a.Name}
		var err error
		if p.AVF, err = avf(a.Name); err != nil {
			return nil, "", err
		}
		if p.SVF, err = svf(a.Name); err != nil {
			return nil, "", err
		}
		pts = append(pts, p)
		addPair(&t, p.App, p.SVF, p.AVF)
	}
	return pts, t.String(), nil
}

// addPair appends one row of Figure 1/2/4/5: a label, then the SVF and AVF
// breakdowns with their totals.
func addPair(t *report.Table, label string, svf, avf metrics.Breakdown) {
	t.AddRow(label,
		report.Pct(svf.SDC), report.Pct(svf.Timeout), report.Pct(svf.DUE), report.Pct(svf.Total()),
		report.Pct(avf.SDC), report.Pct(avf.Timeout), report.Pct(avf.DUE), report.Pct(avf.Total()))
}

// Figure1 measures the application-level AVF and SVF of all 11 benchmarks.
func (s *Study) Figure1() ([]AppPoint, string, error) {
	return s.appFigure(report.Table{
		Title:   "Figure 1: application-level AVF (cross-layer) vs SVF (software-only)",
		Header:  []string{"App", "SVF.SDC", "SVF.Timeout", "SVF.DUE", "SVF", "AVF.SDC", "AVF.Timeout", "AVF.DUE", "AVF"},
		Footers: []string{"note the scale separation: full-system AVF includes all hardware masking (§III-A)"},
	},
		func(app string) (metrics.Breakdown, error) { return s.AppAVF(app, false) },
		func(app string) (metrics.Breakdown, error) { return s.AppSVF(app, false) })
}

// KernelPoint is one kernel's AVF and SVF (one bar pair of Figure 2 / 7).
type KernelPoint struct {
	ID       KernelID
	AVF, SVF metrics.Breakdown
}

// Figure2 measures the kernel-level AVF and SVF of all 23 kernels.
func (s *Study) Figure2() ([]KernelPoint, string, error) {
	var pts []KernelPoint
	for _, id := range s.KernelIDs() {
		avf, _, err := s.KernelAVF(id.App, id.Kernel, false)
		if err != nil {
			return nil, "", err
		}
		svf, err := s.KernelSVF(id.App, id.Kernel, false)
		if err != nil {
			return nil, "", err
		}
		pts = append(pts, KernelPoint{ID: id, AVF: avf, SVF: svf})
	}
	t := report.Table{
		Title:  "Figure 2: kernel-level AVF vs SVF (23 kernels)",
		Header: []string{"Kernel", "SVF.SDC", "SVF.Timeout", "SVF.DUE", "SVF", "AVF.SDC", "AVF.Timeout", "AVF.DUE", "AVF"},
	}
	for _, p := range pts {
		addPair(&t, p.ID.Label(), p.SVF, p.AVF)
	}
	return pts, t.String(), nil
}

// TableIRow is one row of Table I.
type TableIRow struct {
	Name                 string
	Consistent, Opposite int
}

// TableI classifies every workload pair as trend-consistent or
// trend-opposite across the four metric comparisons of the paper.
func (s *Study) TableI() ([]TableIRow, string, error) {
	appNames := SortedAppNames()

	appAVF := map[string]float64{}
	appSVF := map[string]float64{}
	appAVFRF := map[string]float64{}
	appAVFCache := map[string]float64{}
	appSVFLD := map[string]float64{}
	for _, a := range appNames {
		avf, err := s.AppAVF(a, false)
		if err != nil {
			return nil, "", err
		}
		svf, err := s.AppSVF(a, false)
		if err != nil {
			return nil, "", err
		}
		rf, err := s.AppAVFRF(a)
		if err != nil {
			return nil, "", err
		}
		cache, err := s.AppAVFCache(a)
		if err != nil {
			return nil, "", err
		}
		ld, err := s.AppSVFLD(a)
		if err != nil {
			return nil, "", err
		}
		appAVF[a], appSVF[a] = avf.Total(), svf.Total()
		appAVFRF[a], appAVFCache[a], appSVFLD[a] = rf.Total(), cache.Total(), ld.Total()
	}

	kernelIDs := s.KernelIDs()
	var kNames []string
	kAVF := map[string]float64{}
	kSVF := map[string]float64{}
	for _, id := range kernelIDs {
		avf, _, err := s.KernelAVF(id.App, id.Kernel, false)
		if err != nil {
			return nil, "", err
		}
		svf, err := s.KernelSVF(id.App, id.Kernel, false)
		if err != nil {
			return nil, "", err
		}
		kNames = append(kNames, id.Label())
		kAVF[id.Label()], kSVF[id.Label()] = avf.Total(), svf.Total()
	}

	var rows []TableIRow
	c, o, _ := trend.Compare(appNames, appAVF, appSVF)
	rows = append(rows, TableIRow{"Application-Level", c, o})
	c, o, _ = trend.Compare(kNames, kAVF, kSVF)
	rows = append(rows, TableIRow{"Kernel-Level", c, o})
	c, o, _ = trend.Compare(appNames, appAVFRF, appSVF)
	rows = append(rows, TableIRow{"AVF-RF vs. SVF", c, o})
	c, o, _ = trend.Compare(appNames, appAVFCache, appSVFLD)
	rows = append(rows, TableIRow{"AVF-Cache vs. SVF-LD", c, o})

	t := report.Table{
		Title:  "Table I: opposite trends in application or kernel pairs",
		Header: []string{"Comparison", "Consistent Trend", "Opposite Trend"},
	}
	for _, r := range rows {
		total := r.Consistent + r.Opposite
		t.AddRow(r.Name,
			fmt.Sprintf("%d (%d%%)", r.Consistent, int(100*float64(r.Consistent)/float64(total)+0.5)),
			fmt.Sprintf("%d (%d%%)", r.Opposite, int(100*float64(r.Opposite)/float64(total)+0.5)))
	}
	return rows, t.String(), nil
}

// PairMetrics is the Figure 3 data for one kernel pair: each named metric
// with the raw values of both kernels (rendered normalised).
type PairMetrics struct {
	KernelA, KernelB string
	Metrics          []trend.Metric
}

// kernelMetrics collects the Figure 3 metric vector of one kernel.
func (s *Study) kernelMetrics(app, kernel string) (map[string]float64, error) {
	ks, spans, err := s.KernelStats(app, kernel)
	if err != nil {
		return nil, err
	}
	avf, _, err := s.KernelAVF(app, kernel, false)
	if err != nil {
		return nil, err
	}
	svf, err := s.KernelSVF(app, kernel, false)
	if err != nil {
		return nil, err
	}
	var rfDF, smDF, cyc float64
	for _, sp := range spans {
		c := float64(sp.End - sp.Start)
		rfDF += c * sp.RFDeratingFactor(s.Cfg)
		smDF += c * sp.SmemDeratingFactor(s.Cfg)
		cyc += c
	}
	if cyc > 0 {
		rfDF /= cyc
		smDF /= cyc
	}
	missRate := func(m, a int64) float64 {
		if a == 0 {
			return 0
		}
		return float64(m) / float64(a)
	}
	return map[string]float64{
		"AVF":                avf.Total(),
		"SVF":                svf.Total(),
		"Occupancy":          ks.Occupancy(s.Cfg),
		"RF Derat. Factor":   rfDF,
		"SMEM Derat. Factor": smDF,
		"L1D Accesses":       float64(ks.L1D.Accesses),
		"L1D Miss Rate":      missRate(ks.L1D.Misses, ks.L1D.Accesses),
		"L1D Misses":         float64(ks.L1D.Misses),
		"L2 Accesses":        float64(ks.L2.Accesses),
		"L2 Miss Rate":       missRate(ks.L2.Misses, ks.L2.Accesses),
		"L2 Misses":          float64(ks.L2.Misses),
		"L2 Pending Hits":    float64(ks.L2.PendingHits),
		"L2 Reserv. Fails":   float64(ks.L2.ReservFails),
		"Load Instructions":  float64(ks.LoadInstrs),
		"SMEM Instructions":  float64(ks.SmemInstrs),
		"Store Instructions": float64(ks.StoreInstrs),
		"Memory Read":        float64(ks.DRAMRead),
		"Memory Write":       float64(ks.DRAMWrite),
	}, nil
}

// figure3MetricOrder is the x-axis of Figure 3.
var figure3MetricOrder = []string{
	"AVF", "SVF", "Occupancy", "RF Derat. Factor", "SMEM Derat. Factor",
	"L1D Accesses", "L1D Miss Rate", "L1D Misses",
	"L2 Accesses", "L2 Miss Rate", "L2 Misses", "L2 Pending Hits", "L2 Reserv. Fails",
	"Load Instructions", "SMEM Instructions", "Store Instructions",
	"Memory Read", "Memory Write",
}

// Figure3 compares the paper's three kernel pairs (3a: HotSpot K1 vs LUD K1,
// 3b: LUD K2 vs LUD K1, 3c: VA K1 vs SCP K1) across AVF, SVF and the
// resource-utilisation metrics, pairwise-normalised.
func (s *Study) Figure3() ([]PairMetrics, string, error) {
	pairs := []struct{ aApp, aK, bApp, bK string }{
		{"HotSpot", "K1", "LUD", "K1"}, // opposite trend (3a)
		{"LUD", "K2", "LUD", "K1"},     // consistent trend (3b)
		{"VA", "K1", "SCP", "K1"},      // opposite trend, unclear utilisation (3c)
	}
	var out []PairMetrics
	var sb strings.Builder
	for i, p := range pairs {
		ma, err := s.kernelMetrics(p.aApp, p.aK)
		if err != nil {
			return nil, "", err
		}
		mb, err := s.kernelMetrics(p.bApp, p.bK)
		if err != nil {
			return nil, "", err
		}
		pm := PairMetrics{KernelA: p.aApp + " " + p.aK, KernelB: p.bApp + " " + p.bK}
		t := report.Table{
			Title:  fmt.Sprintf("Figure 3%c: %s vs %s (pairwise-normalised)", 'a'+i, pm.KernelA, pm.KernelB),
			Header: []string{"Metric", pm.KernelA, pm.KernelB},
		}
		for _, name := range figure3MetricOrder {
			m := trend.Metric{Name: name, A: ma[name], B: mb[name]}
			pm.Metrics = append(pm.Metrics, m)
			na, nb := trend.Normalize(m.A, m.B)
			t.AddRow(name, report.PctShort(na), report.PctShort(nb))
		}
		out = append(out, pm)
		sb.WriteString(t.String() + "\n")
	}
	return out, sb.String(), nil
}

// Figure4 compares AVF-RF (register-file-only AVF) against SVF per app.
func (s *Study) Figure4() ([]AppPoint, string, error) {
	return s.appFigure(report.Table{
		Title:  "Figure 4: AVF-RF (register file only) vs SVF",
		Header: []string{"App", "SVF.SDC", "SVF.Timeout", "SVF.DUE", "SVF", "AVF-RF.SDC", "AVF-RF.Timeout", "AVF-RF.DUE", "AVF-RF"},
	}, s.AppAVFRF, func(app string) (metrics.Breakdown, error) { return s.AppSVF(app, false) })
}

// Figure5 compares AVF-Cache (L1D+L1T+L2) against SVF-LD (loads only).
func (s *Study) Figure5() ([]AppPoint, string, error) {
	return s.appFigure(report.Table{
		Title:  "Figure 5: AVF-Cache (L1D+L1T+L2) vs SVF-LD (load instructions)",
		Header: []string{"App", "SVF-LD.SDC", "SVF-LD.Timeout", "SVF-LD.DUE", "SVF-LD", "AVF-C.SDC", "AVF-C.Timeout", "AVF-C.DUE", "AVF-Cache"},
	}, s.AppAVFCache, s.AppSVFLD)
}

// HardenedPoint carries one kernel's vulnerability with and without TMR.
type HardenedPoint struct {
	ID                KernelID
	AVF, AVFHardened  metrics.Breakdown
	SVF, SVFHardened  metrics.Breakdown
	CtrlPct, CtrlPctH float64
	StructAVF         []metrics.StructAVF
	StructAVFHardened []metrics.StructAVF
}

// Hardened measures every kernel with and without TMR; Figures 7-11 are
// views over this data.
func (s *Study) Hardened() ([]HardenedPoint, error) {
	var pts []HardenedPoint
	for _, id := range s.KernelIDs() {
		var p HardenedPoint
		p.ID = id
		var err error
		if p.AVF, p.StructAVF, err = s.KernelAVF(id.App, id.Kernel, false); err != nil {
			return nil, err
		}
		if p.AVFHardened, p.StructAVFHardened, err = s.KernelAVF(id.App, id.Kernel, true); err != nil {
			return nil, err
		}
		if p.SVF, err = s.KernelSVF(id.App, id.Kernel, false); err != nil {
			return nil, err
		}
		if p.SVFHardened, err = s.KernelSVF(id.App, id.Kernel, true); err != nil {
			return nil, err
		}
		if p.CtrlPct, err = s.CtrlAffectedPct(id.App, id.Kernel, false); err != nil {
			return nil, err
		}
		if p.CtrlPctH, err = s.CtrlAffectedPct(id.App, id.Kernel, true); err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// Figure7 renders kernel AVF and SVF with and without hardening.
func Figure7(pts []HardenedPoint) string {
	t := report.Table{
		Title:  "Figure 7: AVF and SVF of kernels without / with TMR hardening",
		Header: []string{"Kernel", "SVF w/o", "SVF w/", "AVF w/o", "AVF w/"},
	}
	for _, p := range pts {
		t.AddRow(p.ID.Label(),
			report.Pct(p.SVF.Total()), report.Pct(p.SVFHardened.Total()),
			report.Pct(p.AVF.Total()), report.Pct(p.AVFHardened.Total()))
	}
	return t.String()
}

// Figure8 renders the SDC share of AVF with and without hardening.
func Figure8(pts []HardenedPoint) string {
	t := report.Table{
		Title:  "Figure 8: SDC outcomes of AVF without / with TMR hardening",
		Header: []string{"Kernel", "AVF.SDC w/o", "AVF.SDC w/"},
	}
	for _, p := range pts {
		t.AddRow(p.ID.Label(), report.Pct(p.AVF.SDC), report.Pct(p.AVFHardened.SDC))
	}
	t.AddFooter("SVF reports SDCs eliminated by TMR; residual AVF SDCs are hardware-only effects (§IV-B)")
	return t.String()
}

// Figure9 renders timeout+DUE of AVF and SVF with and without hardening.
func Figure9(pts []HardenedPoint) string {
	t := report.Table{
		Title:  "Figure 9: Timeout+DUE outcomes of AVF and SVF without / with TMR",
		Header: []string{"Kernel", "SVF.T+D w/o", "SVF.T+D w/", "AVF.T+D w/o", "AVF.T+D w/"},
	}
	for _, p := range pts {
		t.AddRow(p.ID.Label(),
			report.Pct(p.SVF.Timeout+p.SVF.DUE), report.Pct(p.SVFHardened.Timeout+p.SVFHardened.DUE),
			report.Pct(p.AVF.Timeout+p.AVF.DUE), report.Pct(p.AVFHardened.Timeout+p.AVFHardened.DUE))
	}
	return t.String()
}

// figure10Kernels are the representative kernels shown in Figure 10.
var figure10Kernels = []KernelID{
	{"LUD", "K2"}, {"SCP", "K1"}, {"NW", "K2"},
	{"BackProp", "K2"}, {"SRADv1", "K2"}, {"K-Means", "K2"},
}

// Figure10 renders the per-structure AVF (RF, SMEM, L1D, L2) of the
// representative kernels before and after hardening.
func Figure10(pts []HardenedPoint) string {
	byID := map[KernelID]HardenedPoint{}
	for _, p := range pts {
		byID[p.ID] = p
	}
	var sb strings.Builder
	for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM, gpu.L1D, gpu.L2} {
		t := report.Table{
			Title: fmt.Sprintf("Figure 10 (%s): per-structure AVF before/after TMR", st),
			Header: []string{"Kernel", "SDC w/o", "Timeout w/o", "DUE w/o",
				"SDC w/", "Timeout w/", "DUE w/"},
		}
		for _, id := range figure10Kernels {
			p, ok := byID[id]
			if !ok {
				continue
			}
			var a, b metrics.Breakdown
			for _, sa := range p.StructAVF {
				if sa.Structure == st {
					a = sa.AVF
				}
			}
			for _, sa := range p.StructAVFHardened {
				if sa.Structure == st {
					b = sa.AVF
				}
			}
			t.AddRow(id.Label(),
				report.Pct(a.SDC), report.Pct(a.Timeout), report.Pct(a.DUE),
				report.Pct(b.SDC), report.Pct(b.Timeout), report.Pct(b.DUE))
		}
		sb.WriteString(t.String() + "\n")
	}
	return sb.String()
}

// Figure11 renders the control-path-affected masked percentage per kernel.
func Figure11(pts []HardenedPoint) string {
	t := report.Table{
		Title:  "Figure 11: control-path affected masked runs (microarchitecture-level FI)",
		Header: []string{"Kernel", "w/o Hardening", "w/ Hardening"},
	}
	for _, p := range pts {
		t.AddRow(p.ID.Label(), report.Pct(p.CtrlPct), report.Pct(p.CtrlPctH))
	}
	return t.String()
}

// Figure12 demonstrates the register reuse analyzer of §V-B on the paper's
// example program: a fault in R0 at instruction #4 affects every subsequent
// read until R0 is rewritten.
func Figure12() (reuse.Analysis, string) {
	p := reuse.Figure12Program()
	a := reuse.ReadersAfter(p, 3, 0) // fault in R0 as read by PC 3 (the paper's #4)
	return a, "Figure 12: register reuse analyzer\n" + reuse.Annotate(p, a)
}

// SpeedComparison quantifies the paper's footnote-1 observation: the
// software-level method is faster than cross-layer simulation by a large
// factor. It runs each engine once untimed on the given app, then times n
// runs of each one by one and returns each engine's median.
func (s *Study) SpeedComparison(appName string, n int) (microPerRun, softPerRun time.Duration, err error) {
	job, err := s.plainJob(appName)
	if err != nil {
		return 0, 0, err
	}
	if microPerRun, err = medianRun(n, func() error { return sim.Run(job, s.Cfg, sim.Options{}).Err }); err != nil {
		return 0, 0, err
	}
	if softPerRun, err = medianRun(n, func() error { return funcsim.Run(job, funcsim.Options{}).Err }); err != nil {
		return 0, 0, err
	}
	return microPerRun, softPerRun, nil
}

// medianRun calls run once to warm it up, then n times (at least once),
// and returns the median of those calls' durations (the upper one for even
// n).
func medianRun(n int, run func() error) (time.Duration, error) {
	if err := run(); err != nil {
		return 0, err
	}
	ds := make([]time.Duration, max(n, 1))
	for i := range ds {
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	slices.Sort(ds)
	return ds[len(ds)/2], nil
}

// ACEComparison contrasts the three points on the paper's accuracy/speed
// spectrum (§I) for the register file of one application: statistical
// injection-based AVF-RF (slow, models all masking), single-run analytical
// ACE AVF-RF (fast, no logical masking → upper bound), and the
// microarchitecture-independent PVF.
type ACEComparison struct {
	App       string
	AVFRF     float64 // statistical, FR×DF
	AVFACE    float64 // analytical ACE
	PVF       float64
	DynInstrs int64
}

// CompareACE runs the comparison for one application.
func (s *Study) CompareACE(appName string) (*ACEComparison, string, error) {
	job, err := s.plainJob(appName)
	if err != nil {
		return nil, "", err
	}
	fi, err := s.AppAVFRF(appName)
	if err != nil {
		return nil, "", err
	}
	aceRes, err := ace.AnalyzeRF(job, s.Cfg)
	if err != nil {
		return nil, "", err
	}
	pvfRes, err := ace.AnalyzePVF(job)
	if err != nil {
		return nil, "", err
	}
	c := &ACEComparison{
		App:       appName,
		AVFRF:     fi.Total(),
		AVFACE:    aceRes.AVFACE,
		PVF:       pvfRes.PVF,
		DynInstrs: pvfRes.DynInstrs,
	}
	t := report.Table{
		Title:  fmt.Sprintf("Register-file vulnerability of %s across methodologies", appName),
		Header: []string{"Method", "Value", "Runs needed", "Masking modelled"},
	}
	t.AddRow("AVF-RF (statistical FI)", report.Pct(c.AVFRF), fmt.Sprint(s.Runs), "hardware + logical")
	t.AddRow("AVF-RF (ACE analysis)", report.Pct(c.AVFACE), "1", "liveness only")
	t.AddRow("PVF (arch.-independent)", report.Pct(c.PVF), "1", "liveness only, no µarch")
	return c, t.String(), nil
}

// BudgetedProtection quantifies the §III-A pitfall: with budget to harden
// only k applications with TMR, a designer ranks candidates by some
// vulnerability metric. The experiment compares choosing by SVF (the
// software view) against choosing by AVF (the ground truth): for each
// policy, the protected apps contribute their hardened AVF and the rest
// their plain AVF; the residual is the mean over the candidate set.
type BudgetedProtection struct {
	Apps              []string
	K                 int
	ChosenBySVF       []string
	ChosenByAVF       []string
	ResidualSVFPolicy float64 // mean AVF when protecting the SVF-chosen set
	ResidualAVFPolicy float64 // mean AVF when protecting the AVF-chosen set
}

// RunBudgetedProtection evaluates both policies over the given apps.
func (s *Study) RunBudgetedProtection(apps []string, k int) (*BudgetedProtection, string, error) {
	plain := map[string]float64{}
	hardened := map[string]float64{}
	svf := map[string]float64{}
	for _, a := range apps {
		pb, err := s.AppAVF(a, false)
		if err != nil {
			return nil, "", err
		}
		sb, err := s.AppSVF(a, false)
		if err != nil {
			return nil, "", err
		}
		plain[a], svf[a] = pb.Total(), sb.Total()
	}
	rank := func(m map[string]float64) []string {
		out := append([]string(nil), apps...)
		sort.SliceStable(out, func(i, j int) bool { return m[out[i]] > m[out[j]] })
		return out
	}
	bp := &BudgetedProtection{Apps: apps, K: k}
	bp.ChosenBySVF = rank(svf)[:k]
	bp.ChosenByAVF = rank(plain)[:k]

	// hardened AVF only for apps some policy actually protects
	need := map[string]bool{}
	for _, a := range append(append([]string(nil), bp.ChosenBySVF...), bp.ChosenByAVF...) {
		need[a] = true
	}
	for a := range need {
		hb, err := s.AppAVF(a, true)
		if err != nil {
			return nil, "", err
		}
		hardened[a] = hb.Total()
	}
	residual := func(protect []string) float64 {
		prot := map[string]bool{}
		for _, a := range protect {
			prot[a] = true
		}
		var sum float64
		for _, a := range apps {
			if prot[a] {
				sum += hardened[a]
			} else {
				sum += plain[a]
			}
		}
		return sum / float64(len(apps))
	}
	bp.ResidualSVFPolicy = residual(bp.ChosenBySVF)
	bp.ResidualAVFPolicy = residual(bp.ChosenByAVF)

	t := report.Table{
		Title:  fmt.Sprintf("Budgeted protection (§III-A): TMR for %d of %d applications", k, len(apps)),
		Header: []string{"Policy", "Protects", "Residual mean AVF"},
	}
	t.AddRow("rank by SVF (software view)", strings.Join(bp.ChosenBySVF, ", "), report.Pct(bp.ResidualSVFPolicy))
	t.AddRow("rank by AVF (ground truth)", strings.Join(bp.ChosenByAVF, ", "), report.Pct(bp.ResidualAVFPolicy))
	t.AddFooter("choosing by SVF wastes the budget whenever the sets differ; TMR can even")
	t.AddFooter("raise a protected app's AVF (§IV), so the residual may exceed doing nothing")
	return bp, t.String(), nil
}

// InputSizeAblation measures how resilience estimates move with input size
// — the observation behind SUGAR (the paper's ref. [48]: input sizing
// changes and can predict resilience). It runs SVF and AVF-RF campaigns on
// vectorAdd at several element counts.
func (s *Study) InputSizeAblation(sizes []int) (string, error) {
	t := report.Table{
		Title:  "Input-size ablation: vectorAdd resilience vs element count",
		Header: []string{"Elements", "SVF", "AVF-RF", "RF DF", "Cycles"},
	}
	for _, n := range sizes {
		app := kernels.VAWithSize(n)
		job := app.Build()
		mg, err := microfi.Golden(job, s.Cfg)
		if err != nil {
			return "", err
		}
		sg, err := softfi.Golden(job)
		if err != nil {
			return "", err
		}
		tgt := microfi.Target{Structure: gpu.RF, Kernel: "K1"}
		seedM := s.Seed + int64(hashKey(fmt.Sprintf("size|m|%d", n)))
		mt := campaign.Run(campaign.Options{Runs: s.Runs, Seed: seedM, Workers: s.Workers},
			func(run int, rng *rand.Rand) faults.Result {
				return microfi.Inject(job, mg, tgt, rng)
			})
		st := softfi.Target{Kernel: "K1", Mode: softfi.SVF}
		seedS := s.Seed + int64(hashKey(fmt.Sprintf("size|s|%d", n)))
		stl := campaign.Run(campaign.Options{Runs: s.Runs, Seed: seedS, Workers: s.Workers},
			func(run int, rng *rand.Rand) faults.Result {
				return softfi.Inject(job, sg, st, rng)
			})
		df := tgt.DF(mg)
		t.AddRow(fmt.Sprint(n), report.Pct(stl.FR()), report.Pct(mt.FR()*df),
			fmt.Sprintf("%.4f", df), fmt.Sprint(mg.Res.Cycles))
	}
	t.AddFooter("SUGAR [48]: resilience estimates shift with input size; the derating factor")
	t.AddFooter("grows with the thread count until the register file saturates")
	return t.String(), nil
}

// PropagationStudy is the §VI future-work experiment: use fast
// error-propagation analysis (taint tracking, one analysis run per site)
// to predict the SDC outcome of software-level injections, then validate
// against real injections at the same dynamic sites — the Trident-style
// accuracy evaluation.
type PropagationStudy struct {
	App                string
	Sites              int
	Crashes            int // sites whose real injection crashed/timed out (not predicted)
	TruePos, TrueNeg   int
	FalsePos, FalseNeg int
	MeanTaintedInstrs  float64
	MeanTaintedThreads float64
}

// Accuracy returns the agreement ratio over non-crashing sites.
func (p *PropagationStudy) Accuracy() float64 {
	n := p.TruePos + p.TrueNeg + p.FalsePos + p.FalseNeg
	if n == 0 {
		return 0
	}
	return float64(p.TruePos+p.TrueNeg) / float64(n)
}

// RunPropagationStudy samples n injection sites of the app uniformly and
// compares the propagation prediction with the real outcome of a bit-30
// destination flip at the same site.
func (s *Study) RunPropagationStudy(appName string, n int) (*PropagationStudy, string, error) {
	job, err := s.plainJob(appName)
	if err != nil {
		return nil, "", err
	}
	_, sg, err := s.Golden(PointSpec{Layer: LayerSoft, App: appName})
	if err != nil {
		return nil, "", err
	}
	g := sg.Res
	ps := &PropagationStudy{App: appName}
	rng := rand.New(rand.NewSource(s.Seed + int64(hashKey("prop|"+appName))))
	var sumInstrs, sumThreads float64
	for k := 0; k < n; k++ {
		idx := rng.Int63n(g.DstCands)
		pred, err := propagate.Analyze(job, propagate.Seed{Index: idx})
		if err != nil {
			return nil, "", err
		}
		sumInstrs += float64(pred.TaintedInstrs)
		sumThreads += float64(pred.TaintedThreads)
		run := funcsim.Run(job, funcsim.Options{
			MaxDynInstrs: g.DynInstrs * 10,
			Inject:       &funcsim.Injection{Mode: funcsim.InjectDst, Index: idx, Bit: 30},
		})
		ps.Sites++
		if run.Err != nil || run.TimedOut {
			ps.Crashes++
			continue
		}
		actual := !bytes.Equal(run.Output, g.Output)
		switch {
		case pred.OutputTainted && actual:
			ps.TruePos++
		case !pred.OutputTainted && !actual:
			ps.TrueNeg++
		case pred.OutputTainted && !actual:
			ps.FalsePos++
		default:
			ps.FalseNeg++
		}
	}
	if ps.Sites > 0 {
		ps.MeanTaintedInstrs = sumInstrs / float64(ps.Sites)
		ps.MeanTaintedThreads = sumThreads / float64(ps.Sites)
	}
	t := report.Table{
		Title:  fmt.Sprintf("Error-propagation prediction vs real injection: %s (%d sites)", appName, n),
		Header: []string{"Quantity", "Value"},
	}
	t.AddRow("prediction accuracy", report.Pct(ps.Accuracy()))
	t.AddRow("true SDC / true masked", fmt.Sprintf("%d / %d", ps.TruePos, ps.TrueNeg))
	t.AddRow("false SDC / missed SDC", fmt.Sprintf("%d / %d", ps.FalsePos, ps.FalseNeg))
	t.AddRow("crashed sites (not predicted)", fmt.Sprint(ps.Crashes))
	t.AddRow("mean tainted instructions", fmt.Sprintf("%.1f", ps.MeanTaintedInstrs))
	t.AddRow("mean tainted threads", fmt.Sprintf("%.1f", ps.MeanTaintedThreads))
	t.AddFooter("§VI: \"conducting fast error propagation analysis across instructions\" — one")
	t.AddFooter("taint run predicts the SDC class; false positives are logical masking (e.g. a")
	t.AddFooter("flipped bit that does not change the stored result), which reachability cannot see.")
	return ps, t.String(), nil
}

// ECCAblation measures a kernel's chip AVF under different protection
// choices — the "targeted protection strategies" design question the paper's
// §II-A motivates. Each scenario protects a set of structures with SEC-DED
// and re-runs the per-structure campaigns under the multi-bit mix given by
// burst (1 = pure single-bit, where ECC removes everything it covers).
func (s *Study) ECCAblation(appName, kernel string, burst int) (string, error) {
	job, err := s.plainJob(appName)
	if err != nil {
		return "", err
	}
	golden, _, err := s.Golden(PointSpec{Layer: LayerMicro, App: appName})
	if err != nil {
		return "", err
	}
	scenarios := []struct {
		name string
		sts  []gpu.Structure
	}{
		{"unprotected", nil},
		{"ECC on RF", []gpu.Structure{gpu.RF}},
		{"ECC on caches", []gpu.Structure{gpu.L1D, gpu.L1T, gpu.L2}},
		{"ECC everywhere", gpu.Structures[:]},
	}
	t := report.Table{
		Title:  fmt.Sprintf("Protection ablation: %s %s chip AVF (burst=%d)", appName, kernel, burst),
		Header: []string{"Scenario", "AVF.SDC", "AVF.Timeout", "AVF.DUE", "AVF"},
	}
	for _, sc := range scenarios {
		cfg := s.Cfg.WithECC(sc.sts...)
		// golden runs are protection-independent (ECC only changes fault
		// outcomes), so reuse the cached golden with the modified config
		g := &microfi.GoldenRun{Res: golden.Res, Cfg: cfg}
		var structs []metrics.StructAVF
		for _, st := range gpu.Structures {
			tgt := microfi.Target{Structure: st, Kernel: kernel, Model: faultmodel.Transient{Width: burst}}
			seed := s.Seed + int64(hashKey(fmt.Sprintf("ecc|%s|%s|%d|%s|%d", appName, kernel, st, sc.name, burst)))
			tl := campaign.Run(campaign.Options{Runs: s.Runs, Seed: seed, Workers: s.Workers},
				func(run int, rng *rand.Rand) faults.Result {
					return microfi.Inject(job, g, tgt, rng)
				})
			structs = append(structs, metrics.NewStructAVF(st, tl, tgt.DF(g)))
		}
		chip := metrics.ChipAVF(s.Cfg, structs)
		t.AddRow(sc.name, report.Pct(chip.SDC), report.Pct(chip.Timeout), report.Pct(chip.DUE), report.Pct(chip.Total()))
	}
	t.AddFooter("SEC-DED: single-bit corrected, double-bit detected (DUE), wider bursts escape")
	return t.String(), nil
}

// MultiBitAblation runs the §II-A multi-bit discussion as an experiment:
// AVF of a kernel under 1..width adjacent-bit bursts in one structure.
func (s *Study) MultiBitAblation(appName, kernel string, st gpu.Structure, widths []int) ([]metrics.Breakdown, string, error) {
	var out []metrics.Breakdown
	t := report.Table{
		Title:  fmt.Sprintf("Multi-bit ablation: %s %s, %s", appName, kernel, st),
		Header: []string{"Burst width", "SDC", "Timeout", "DUE", "FR×DF"},
	}
	for _, w := range widths {
		spec := PointSpec{Layer: LayerMicro, App: appName, Kernel: kernel, Structure: st,
			Fault: &faultmodel.Spec{Width: w}}
		// The ablation's points run at campaign seeds of their own, not at
		// PointSeed: its published rows were measured with them.
		tl, err := s.RunAt(spec, s.Seed+int64(hashKey(fmt.Sprintf("burst|%s|%s|%d|%d", appName, kernel, st, w))))
		if err != nil {
			return nil, "", err
		}
		df, err := s.df(spec)
		if err != nil {
			return nil, "", err
		}
		b := metrics.FromTally(tl).Scale(df)
		out = append(out, b)
		t.AddRow(fmt.Sprint(w), report.Pct(b.SDC), report.Pct(b.Timeout), report.Pct(b.DUE), report.Pct(b.Total()))
	}
	return out, t.String(), nil
}
