// Tests of advise jobs — a scheduler job whose campaigns are child jobs — on
// a synthetic measurement backend: HTTP lifecycle with NDJSON progress,
// validation, metrics, cancel, and — the acceptance property —
// kill-and-resume mid-run reproducing the bit-identical final plan, with
// every child job held exactly once across the restart. The selective
// "harden" job-spec wire field is covered here too.
package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpurel"
	"gpurel/internal/advisor"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/service"
)

// TestHardenWireSpec: the selective "harden" field decodes from the golden
// fixture, survives the point round trip, and its misuse is rejected.
func TestHardenWireSpec(t *testing.T) {
	sp := loadSpec(t, "jobspec_harden.json")
	if err := sp.Validate(); err != nil {
		t.Fatalf("harden fixture invalid: %v", err)
	}
	p, err := sp.Point()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Harden) != 2 || p.Harden[0] != "K5" || p.Harden[1] != "K2" {
		t.Fatalf("point lost the protection set: %+v", p.Harden)
	}

	// SpecForPoint is the inverse used by the client-side study hook.
	back := service.SpecForPoint(p, campaign.Options{Runs: sp.Runs, Seed: sp.Seed})
	bp, err := back.Point()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(bp.Harden) != fmt.Sprint(p.Harden) {
		t.Errorf("SpecForPoint round trip changed the set: %v != %v", bp.Harden, p.Harden)
	}

	for name, bad := range map[string]string{
		"mixed with hardened": `{"layer":"micro","app":"VA","kernel":"K1","runs":10,"hardened":true,"harden":["K1"]}`,
		"soft layer":          `{"layer":"soft","app":"VA","kernel":"K1","runs":10,"harden":["K1"]}`,
	} {
		var sp service.JobSpec
		if err := json.Unmarshal([]byte(bad), &sp); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: validated, want rejection", name)
		}
	}
}

// synthAdviseBackend is a deterministic in-memory measurement table. With
// the default numbers the search protects exactly {K4} at budget 0.04, at
// overhead 1.2 against full TMR's 1.5. childRuns, when set, makes every
// Measure run one synthetic campaign of that many runs as a child job
// first. blockAtOverhead, when set, makes the first Overhead call for that
// subset signal `reached` and block until `release` closes — the hook the
// kill-and-resume test uses to stop the daemon mid-run.
type synthAdviseBackend struct {
	childRuns  int
	verifySkew float64 // added to the verified SDC (to force refusal)

	blockAtOverhead string
	reached         chan struct{}
	release         chan struct{}

	mu       sync.Mutex
	runPoint service.RunPointFunc
	measured []string
	priced   []string
	verifies int
	blocked  bool
}

var synthKernels = []string{"K1", "K2", "K3", "K4"}

var synthTable = map[string]advisor.KernelMeasure{
	"K1": {Kernel: "K1", Weight: 100, HardMult: 1.5, SDC: 0.02, SDCHardened: 0.002},
	"K2": {Kernel: "K2", Weight: 300, HardMult: 1.5, SDC: 0.08, SDCHardened: 0.002},
	"K3": {Kernel: "K3", Weight: 200, HardMult: 1.5, SDC: 0.05, SDCHardened: 0.002},
	"K4": {Kernel: "K4", Weight: 400, HardMult: 1.5, SDC: 0.10, SDCHardened: 0.002},
}

// synthSubsets is the number of non-empty protection subsets pricing covers.
var synthSubsets = 1<<len(synthKernels) - 1

// synthCosts are marginal costs: a subset costs 1 + the sum of its members'.
var synthCosts = map[string]float64{"K1": 0.05, "K2": 0.15, "K3": 0.10, "K4": 0.20}

func (b *synthAdviseBackend) Kernels(ctx context.Context, app string) ([]string, error) {
	if app != "synth" {
		return nil, fmt.Errorf("unknown app %q", app)
	}
	return append([]string(nil), synthKernels...), nil
}

func (b *synthAdviseBackend) Measure(ctx context.Context, app, kernel string) (advisor.KernelMeasure, error) {
	b.mu.Lock()
	b.measured = append(b.measured, kernel)
	run := b.runPoint
	b.mu.Unlock()
	if b.childRuns > 0 {
		p := gpurel.PointSpec{Layer: gpurel.LayerMicro, App: app, Kernel: kernel, Structure: gpu.RF}
		if _, err := run(p, synthChildOpts(b.childRuns, kernel)); err != nil {
			return advisor.KernelMeasure{}, err
		}
	}
	return synthTable[kernel], nil
}

// synthChildOpts is the campaign a synthetic Measure runs for kernel.
func synthChildOpts(runs int, kernel string) campaign.Options {
	return campaign.Options{Runs: runs, Seed: int64(100 + kernel[1])}
}

func (b *synthAdviseBackend) Overhead(ctx context.Context, app string, protect []string) (float64, error) {
	name := strings.Join(protect, "+")
	b.mu.Lock()
	block := name == b.blockAtOverhead && !b.blocked
	b.blocked = b.blocked || block
	b.priced = append(b.priced, name)
	b.mu.Unlock()
	if block {
		close(b.reached)
		select {
		case <-b.release:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	o := 1.0
	for _, k := range protect {
		o += synthCosts[k]
	}
	return o, nil
}

// Verify reports the same weighted SDC the search predicts (plus skew), so
// verification passes exactly when the prediction was honest.
func (b *synthAdviseBackend) Verify(ctx context.Context, app string, protect []string) (advisor.Verification, error) {
	b.mu.Lock()
	b.verifies++
	b.mu.Unlock()
	prot := map[string]bool{}
	for _, k := range protect {
		prot[k] = true
	}
	var num, den float64
	v := advisor.Verification{PerKernel: map[string]float64{}}
	for _, k := range synthKernels {
		m := synthTable[k]
		w, sdc := m.Weight, m.SDC
		if prot[k] {
			w, sdc = w*m.HardMult, m.SDCHardened
		}
		num += w * sdc
		den += w
		v.PerKernel[k] = sdc
		v.TotalRuns += 100
	}
	v.SDC = num/den + b.verifySkew
	return v, nil
}

func (b *synthAdviseBackend) ran() (measured, priced []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.measured...), append([]string(nil), b.priced...)
}

func synthFactory(b *synthAdviseBackend) service.AdviseBackendFactory {
	return func(spec service.JobSpec, runPoint service.RunPointFunc) (advisor.Backend, error) {
		b.mu.Lock()
		b.runPoint = runPoint
		b.mu.Unlock()
		return b, nil
	}
}

// synthAdvise is the advise spec every test submits.
func synthAdvise() service.JobSpec {
	return service.JobSpec{Advise: &service.AdviseGroup{App: "synth", Budget: 0.04}, Runs: 100, Seed: 7}
}

// newAdviseScheduler starts a scheduler on a synthetic backend; journal ""
// runs without a checkpoint.
func newAdviseScheduler(t *testing.T, b *synthAdviseBackend, source service.SourceFunc, journal string) *service.Scheduler {
	t.Helper()
	sched, err := service.NewScheduler(service.Config{
		Source: source, AdviseBackend: synthFactory(b), ChunkSize: 50, WorkersPerShard: 2,
		CheckpointPath: journal, CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	return sched
}

func postJob(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// children lists the child jobs of an advise job.
func children(sched *service.Scheduler, parent string) []service.JobStatus {
	var out []service.JobStatus
	for _, st := range sched.List() {
		if strings.HasPrefix(st.ID, parent+".") {
			out = append(out, st)
		}
	}
	return out
}

// synthTally is the tally a synthetic child campaign must end with.
func synthTally(opts campaign.Options) campaign.Tally {
	return campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result { return outcome(rng) })
}

// TestAdviseServiceEndToEnd drives one advise job through the full HTTP
// lifecycle on the jobs API: submit, NDJSON events to completion, status
// with plan and verification, list with its child jobs — which inherit the
// parent's tenant and priority and tally like any campaign — and the
// /metrics counters.
func TestAdviseServiceEndToEnd(t *testing.T) {
	// Pricing waits for the event stream to attach, so the job cannot end
	// before it and the stream sees the later units' progress events.
	b := &synthAdviseBackend{childRuns: 120, blockAtOverhead: "K1", reached: make(chan struct{}), release: make(chan struct{})}
	sched, srv := newTestServer(t, service.Config{Source: fakeSource(0), AdviseBackend: synthFactory(b), ChunkSize: 50})

	resp, data := postJob(t, srv.URL, `{"advise":{"app":"synth","budget":0.04},"runs":100,"seed":7,"tenant":"alpha","priority":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Spec.Advise == nil || st.Spec.Advise.App != "synth" || st.Advise == nil {
		t.Fatalf("submit status = %s", data)
	}

	// Stream events until terminal.
	evResp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	close(b.release)
	var last service.Event
	progress := 0
	sc := bufio.NewScanner(evResp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		checkEventType(t, last)
		if last.Type == "progress" {
			progress++
		}
	}
	if last.Type != "done" || last.Job.State != service.StateDone {
		t.Fatalf("final event = %+v", last)
	}
	if progress == 0 {
		t.Error("no progress event per advisor unit")
	}

	fin := last.Job.Advise
	if fin == nil || fin.Phase != advisor.PhaseDone || fin.Plan == nil || fin.Verification == nil {
		t.Fatalf("done status incomplete: %+v", last.Job)
	}
	if got := fmt.Sprint(fin.Plan.Protect); got != "[K4]" {
		t.Errorf("plan protects %s, want [K4]", got)
	}
	if !fin.Verification.Pass || fin.Verification.SDC > 0.04 {
		t.Errorf("verification failed the budget: %+v", fin.Verification)
	}
	if fin.Plan.Overhead != 1.2 || fin.Plan.FullOverhead != 1.5 {
		t.Errorf("plan overhead %.3f, full TMR %.3f, want 1.2 and 1.5", fin.Plan.Overhead, fin.Plan.FullOverhead)
	}
	if fin.Measured != len(synthKernels) || fin.Costed != synthSubsets {
		t.Errorf("progress counters = %d/%d, want %d/%d", fin.Measured, fin.Costed, len(synthKernels), synthSubsets)
	}
	if last.Job.Total != 0 || last.Job.Done != 0 || last.Job.Tally.N != 0 {
		t.Errorf("advise job executed runs of its own: %+v", last.Job)
	}

	// GET by ID agrees with the terminal event; the list holds the job and
	// one child per measured kernel.
	getResp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got service.JobStatus
	json.NewDecoder(getResp.Body).Decode(&got)
	getResp.Body.Close()
	if got.State != service.StateDone || got.Advise == nil || got.Advise.Plan == nil {
		t.Errorf("GET status = %+v", got)
	}
	kids := children(sched, st.ID)
	if len(kids) != len(synthKernels) || len(sched.List()) != 1+len(synthKernels) {
		t.Fatalf("children = %+v", kids)
	}
	for _, k := range kids {
		opts := synthChildOpts(b.childRuns, k.Spec.Kernel)
		if k.State != service.StateDone || k.Spec.Tenant != "alpha" || k.Spec.Priority != 3 ||
			k.Spec.Runs != opts.Runs || k.Spec.Seed != opts.Seed || k.Tally != synthTally(opts) {
			t.Errorf("child %+v", k)
		}
	}

	// Metrics: advise jobs and their children count as jobs.
	mResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mData, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	for _, want := range []string{
		`gpureld_jobs_total{event="submitted"} 5`,
		`gpureld_jobs_total{event="done"} 5`,
		`gpureld_advise_plans_total{result="verified"} 1`,
		`gpureld_advise_plans_total{result="refused"} 0`,
		`gpureld_injections_total 480`,
	} {
		if !bytes.Contains(mData, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAdviseValidation: malformed advise submissions to POST /v1/jobs are
// 400s with a JSON error — every campaign-point field mixed into an advise
// spec among them.
func TestAdviseValidation(t *testing.T) {
	b := &synthAdviseBackend{}
	_, srv := newTestServer(t, service.Config{Source: fakeSource(0), AdviseBackend: synthFactory(b)})
	const group = `"advise":{"app":"synth","budget":0.04},"runs":100`
	cases := map[string]string{
		"missing app":    `{"advise":{"budget":0.04},"runs":100}`,
		"budget one":     `{"advise":{"app":"synth","budget":1},"runs":100}`,
		"budget too big": `{"advise":{"app":"synth","budget":1.5},"runs":100}`,
		"negative":       `{"advise":{"app":"synth","budget":-0.1},"runs":100}`,
		"no runs":        `{"advise":{"app":"synth","budget":0.04}}`,
		"zero runs":      `{"advise":{"app":"synth","budget":0.04},"runs":0}`,
		"negative runs":  `{"advise":{"app":"synth","budget":0.04},"runs":-5}`,
		"bad priority":   `{` + group + `,"priority":101}`,
		"unknown field":  `{` + group + `,"bogus":1}`,
		"unknown group":  `{"advise":{"app":"synth","budget":0.04,"bogus":1},"runs":100}`,
		"flat spelling":  `{"app":"synth","budget":0.04,"runs":100}`,
	}
	for field, value := range map[string]string{
		"layer": `"micro"`, "app": `"VA"`, "kernel": `"K1"`, "structure": `"RF"`, "mode": `"SVF"`,
		"hardened": `true`, "harden": `["K1"]`, "sampling": `{"margin99":0.05}`, "checkpoint": `{"stride":-1}`,
		"fault": `{"model":"stuck","stuck":0}`, "deadline_sec": `5`,
	} {
		cases["mixed "+field] = `{` + group + `,"` + field + `":` + value + `}`
	}
	for name, body := range cases {
		resp, data := postJob(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, data)
		}
		var e service.ErrorEnvelope
		if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != service.ErrCodeBadRequest || e.Error.Message == "" {
			t.Errorf("%s: error body %q", name, data)
		}
	}
	for _, body := range []string{
		`{` + group + `,"seed":3,"tenant":"alpha","priority":100}`,
		`{"advise":{"app":"synth","budget":0},"runs":1}`,
		`{"advise":{"app":"nosuch","budget":0.04},"runs":100}`, // fails when it starts
	} {
		if resp, data := postJob(t, srv.URL, body); resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s rejected at submit: %d %s", body, resp.StatusCode, data)
		}
	}
}

// TestAdviseRefusedPlan: a verification that misses the budget ends the job
// failed with the refusal recorded, and bumps the refused counter.
func TestAdviseRefusedPlan(t *testing.T) {
	b := &synthAdviseBackend{verifySkew: 1}
	sched, srv := newTestServer(t, service.Config{Source: fakeSource(0), AdviseBackend: synthFactory(b)})

	st, err := sched.Submit(synthAdvise())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, sched, st.ID)
	if fin.State != service.StateFailed || !strings.Contains(fin.Error, "plan refused") {
		t.Fatalf("refused advise = %+v", fin)
	}
	if v := fin.Advise.Verification; v == nil || v.Pass {
		t.Errorf("refusal did not record the failing verification: %+v", v)
	}

	mResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mData, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	for _, want := range []string{`gpureld_advise_plans_total{result="refused"} 1`, `gpureld_jobs_total{event="failed"} 1`} {
		if !bytes.Contains(mData, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(mData, "gpureld_"))
		}
	}
}

// TestAdviseCancel: DELETE lands the job in a terminal canceled state that a
// restart does not resurrect.
func TestAdviseCancel(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "gpureld.ckpt.json")
	b := &synthAdviseBackend{blockAtOverhead: "K2", reached: make(chan struct{}), release: make(chan struct{})}
	sched := newAdviseScheduler(t, b, fakeSource(0), journal)
	st, err := sched.Submit(synthAdvise())
	if err != nil {
		t.Fatal(err)
	}
	<-b.reached
	// Cancel aborts the blocked unit through its context; release stays
	// open so the only way out is the cancellation.
	if _, ok := sched.Cancel(st.ID); !ok {
		t.Fatal("cancel: no such job")
	}
	if fin := waitJob(t, sched, st.ID); fin.State != service.StateCanceled {
		t.Fatalf("state after cancel = %q", fin.State)
	}
	sched.Close()

	b2 := &synthAdviseBackend{}
	sched2 := newAdviseScheduler(t, b2, fakeSource(0), journal)
	got, ok := sched2.Get(st.ID)
	if !ok || got.State != service.StateCanceled {
		t.Fatalf("restart changed canceled job: %+v", got)
	}
	sched2.Close()
	if measured, priced := b2.ran(); len(measured)+len(priced) != 0 {
		t.Errorf("restart re-ran %v %v of a canceled job", measured, priced)
	}
}

// TestAdviseKillResumeBitIdentical is the acceptance property: stop the
// daemon mid-run (blocked inside subset pricing), restart on the same
// journal, and the resumed advise completes without re-running journaled
// units — to the bit-identical plan and verification an uninterrupted run
// produces.
func TestAdviseKillResumeBitIdentical(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "gpureld.ckpt.json")
	b1 := &synthAdviseBackend{blockAtOverhead: "K3", reached: make(chan struct{}), release: make(chan struct{})}
	sched1 := newAdviseScheduler(t, b1, fakeSource(0), journal)
	st, err := sched1.Submit(synthAdvise())
	if err != nil {
		t.Fatal(err)
	}
	<-b1.reached
	// "Kill" the daemon while pricing is in flight: Close cancels
	// the driver's context, which aborts the blocked unit before it
	// journals, and parks the job.
	if err := sched1.Close(); err != nil {
		t.Fatal(err)
	}
	interrupted, ok := sched1.Get(st.ID)
	if !ok || interrupted.State.Terminal() {
		t.Fatalf("shutdown made the job terminal: %+v", interrupted)
	}
	if interrupted.Advise.Measured != len(synthKernels) {
		t.Fatalf("journal lost measures: %+v", interrupted.Advise)
	}

	// Restart on the same journal with a fresh backend: the job resumes by
	// itself and completes.
	b2 := &synthAdviseBackend{}
	sched2 := newAdviseScheduler(t, b2, fakeSource(0), journal)
	fin := waitJob(t, sched2, st.ID)
	if fin.State != service.StateDone {
		t.Fatalf("resumed advise = %+v", fin)
	}

	// No journaled unit re-ran: every measure was recovered, only the
	// never-journaled pricing unit (and the phases after it) executed —
	// pricing is one unit, so the resume prices every subset once.
	measured, priced := b2.ran()
	if len(measured) != 0 {
		t.Errorf("resume re-measured %v", measured)
	}
	if len(priced) != synthSubsets || priced[len(priced)-1] != "K1+K2+K3+K4" {
		t.Errorf("resume priced %v, want each of the %d subsets once", priced, synthSubsets)
	}

	// The final plan and verification are bit-identical to an uninterrupted
	// run's.
	sched3 := newAdviseScheduler(t, &synthAdviseBackend{}, fakeSource(0), "")
	ref, err := sched3.Submit(synthAdvise())
	if err != nil {
		t.Fatal(err)
	}
	sameAdvice(t, fin, waitJob(t, sched3, ref.ID))
}

// TestAdviseStaleStateFails: an advise job restored from a scheduler journal
// whose advisor state has another schema version ends failed, naming both
// versions, and never verifies the plan that state holds. The fixture was
// written by a scheduler at StateVersion 1, drained while the advise job
// was verifying.
func TestAdviseStaleStateFails(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sched_journal_advise_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "gpureld.ckpt.json")
	if err := os.WriteFile(journal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	b := &synthAdviseBackend{}
	sched := newAdviseScheduler(t, b, fakeSource(0), journal)
	list := sched.List()
	if len(list) != 1 || list[0].Advise == nil {
		t.Fatalf("restored table = %+v", list)
	}
	fin := waitJob(t, sched, list[0].ID)
	if fin.State != service.StateFailed || !strings.Contains(fin.Error, "version 1, want 2") {
		t.Fatalf("stale advise = %s %q, want failed naming both versions", fin.State, fin.Error)
	}
	if fin.Advise.Verification != nil {
		t.Errorf("stale advise recorded a verification: %+v", fin.Advise.Verification)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.verifies+len(b.measured)+len(b.priced) != 0 {
		t.Errorf("stale advise ran units: %d verifies, measured %v, priced %v", b.verifies, b.measured, b.priced)
	}
}

// TestAdviseDrainParksChild: a drain while a child campaign is mid-run parks
// both jobs; the restarted table resumes them, holds each child spec exactly
// once, and ends with the plan of an uninterrupted run and every child
// tally bit-identical to a plain campaign.
func TestAdviseDrainParksChild(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "gpureld.ckpt.json")
	const childRuns = 1000
	sched1 := newAdviseScheduler(t, &synthAdviseBackend{childRuns: childRuns}, fakeSource(200*time.Microsecond), journal)
	st, err := sched1.Submit(synthAdvise())
	if err != nil {
		t.Fatal(err)
	}
	var parked service.JobStatus
	deadline := time.Now().Add(10 * time.Second)
	for parked.Done == 0 {
		for _, k := range children(sched1, st.ID) {
			if k.Done > 0 && !k.State.Terminal() {
				parked = k
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no child ever ran: %+v", sched1.List())
		}
		time.Sleep(time.Millisecond)
	}
	if err := sched1.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := sched1.Get(parked.ID); got.State != service.StateQueued || got.Done == 0 || got.Done >= childRuns {
		t.Fatalf("drain did not park the child mid-run: %+v", got)
	}
	if got, _ := sched1.Get(st.ID); got.State != service.StateQueued {
		t.Fatalf("drain did not park the advise: %+v", got)
	}

	sched2 := newAdviseScheduler(t, &synthAdviseBackend{childRuns: childRuns}, fakeSource(0), journal)
	fin := waitJob(t, sched2, st.ID)
	if fin.State != service.StateDone {
		t.Fatalf("resumed advise = %+v", fin)
	}
	seen := map[string]int{}
	for _, k := range children(sched2, st.ID) {
		spec, _ := json.Marshal(k.Spec)
		seen[string(spec)]++
		if opts := synthChildOpts(childRuns, k.Spec.Kernel); k.State != service.StateDone || k.Tally != synthTally(opts) {
			t.Errorf("child %s: %s, tally %+v", k.ID, k.State, k.Tally)
		}
	}
	if len(seen) != len(synthKernels) {
		t.Errorf("restarted table holds %d child specs, want %d", len(seen), len(synthKernels))
	}
	for spec, n := range seen {
		if n != 1 {
			t.Errorf("child spec held %d times: %s", n, spec)
		}
	}

	sched3 := newAdviseScheduler(t, &synthAdviseBackend{childRuns: childRuns}, fakeSource(0), "")
	ref, err := sched3.Submit(synthAdvise())
	if err != nil {
		t.Fatal(err)
	}
	sameAdvice(t, fin, waitJob(t, sched3, ref.ID))
}

// TestAdviseCancelCancelsChild: canceling an advise job cancels its
// in-flight child, and a restart resurrects neither.
func TestAdviseCancelCancelsChild(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "gpureld.ckpt.json")
	sched1 := newAdviseScheduler(t, &synthAdviseBackend{childRuns: 100000}, fakeSource(200*time.Microsecond), journal)
	st, err := sched1.Submit(synthAdvise())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for kids := children(sched1, st.ID); len(kids) == 0 || kids[0].Done == 0; kids = children(sched1, st.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("no child ever ran: %+v", sched1.List())
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := sched1.Cancel(st.ID); !ok {
		t.Fatal("cancel: no such job")
	}
	if fin := waitJob(t, sched1, st.ID); fin.State != service.StateCanceled {
		t.Fatalf("advise after cancel = %+v", fin)
	}
	kids := children(sched1, st.ID)
	if len(kids) != 1 {
		t.Fatalf("children = %+v", kids)
	}
	if fin := waitJob(t, sched1, kids[0].ID); fin.State != service.StateCanceled {
		t.Fatalf("in-flight child after its parent's cancel = %+v", fin)
	}
	if err := sched1.Close(); err != nil {
		t.Fatal(err)
	}

	b2 := &synthAdviseBackend{childRuns: 100000}
	sched2 := newAdviseScheduler(t, b2, fakeSource(0), journal)
	list := sched2.List()
	if len(list) != 2 {
		t.Fatalf("restarted table = %+v", list)
	}
	for _, st := range list {
		if st.State != service.StateCanceled {
			t.Errorf("restart resurrected %s: %s", st.ID, st.State)
		}
	}
	sched2.Close()
	if measured, priced := b2.ran(); len(measured)+len(priced) != 0 {
		t.Errorf("restart re-ran %v %v of a canceled advise", measured, priced)
	}
}

// sameAdvice fails unless two finished advise jobs hold byte-identical plans
// and verifications.
func sameAdvice(t *testing.T, got, want service.JobStatus) {
	t.Helper()
	for name, pair := range map[string][2]any{
		"plan":         {got.Advise.Plan, want.Advise.Plan},
		"verification": {got.Advise.Verification, want.Advise.Verification},
	} {
		a, _ := json.Marshal(pair[0])
		b, _ := json.Marshal(pair[1])
		if !bytes.Equal(a, b) || string(a) == "null" {
			t.Errorf("%s differs from the uninterrupted run's:\n%s\n%s", name, a, b)
		}
	}
}

// waitJob polls a job to a terminal state (a resumed advise starts from the
// constructor, before a subscriber can attach).
func waitJob(t *testing.T, sched *service.Scheduler, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, ok := sched.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// grepMetrics filters an exposition page for a substring (test diagnostics).
func grepMetrics(data []byte, substr string) string {
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
