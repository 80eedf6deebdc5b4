package funcsim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gpurel/internal/device"
)

// The differential matrix for the µop executor: what runCTA computes must be
// what the reference executor of reference_test.go computes, on every kind
// of run the package offers.

// onBoth runs f once on the µop executor and once on the reference.
func onBoth(f func() *Result) (got, want *Result) {
	got = f()
	onReference(func() { want = f() })
	return got, want
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameRecord compares two fault-free recording runs field for field.
func sameRecord(t *testing.T, name string, got, want *Result) {
	t.Helper()
	sameOutcome(t, name, got, want)
	if got.DstCands != want.DstCands || got.LoadCands != want.LoadCands || got.UseCands != want.UseCands {
		t.Errorf("%s: candidates dst/load/use %d/%d/%d, reference %d/%d/%d", name,
			got.DstCands, got.LoadCands, got.UseCands, want.DstCands, want.LoadCands, want.UseCands)
	}
	if !reflect.DeepEqual(got.PerKernel, want.PerKernel) {
		t.Errorf("%s: per-kernel counts and windows differ", name)
	}
	g, w := got.Checkpoints, want.Checkpoints
	if (g == nil) != (w == nil) {
		t.Fatalf("%s: one run recorded, the other did not", name)
	}
	if g == nil {
		return
	}
	if g.DeltaBytes() != w.DeltaBytes() || !reflect.DeepEqual(g.bounds, w.bounds) ||
		!reflect.DeepEqual(g.writes, w.writes) || !bytes.Equal(g.data, w.data) || !reflect.DeepEqual(g.spans, w.spans) {
		t.Errorf("%s: checkpoint logs differ (%d boundaries / %d delta bytes, reference %d / %d)", name,
			g.Len(), g.DeltaBytes(), w.Len(), w.DeltaBytes())
	}
}

// sameOutcome compares two runs on everything softfi.Classify and the
// fork-and-join accounting read: the contract for injection runs. The candidate counters are left out on
// purpose: a run that ends in Err stopped inside an instruction, where the
// µop executor counts per instruction and the reference per access.
func sameOutcome(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if errText(got.Err) != errText(want.Err) || got.TimedOut != want.TimedOut || got.DUEFlag != want.DUEFlag {
		t.Fatalf("%s: µop err %q timeout %v due %v, reference err %q timeout %v due %v", name,
			errText(got.Err), got.TimedOut, got.DUEFlag, errText(want.Err), want.TimedOut, want.DUEFlag)
	}
	if !bytes.Equal(got.Output, want.Output) {
		t.Fatalf("%s: outputs differ", name)
	}
	if got.DynInstrs != want.DynInstrs || got.Joined != want.Joined || got.JoinSkipped != want.JoinSkipped {
		t.Fatalf("%s: dyn %d joined %v (+%d), reference dyn %d joined %v (+%d)", name,
			got.DynInstrs, got.Joined, got.JoinSkipped, want.DynInstrs, want.Joined, want.JoinSkipped)
	}
	if got.Skips != want.Skips || got.SkipInstrs != want.SkipInstrs || got.ReadRefusals != want.ReadRefusals {
		t.Fatalf("%s: %d CTAs skipped (+%d), %d refused, reference %d (+%d), %d", name,
			got.Skips, got.SkipInstrs, got.ReadRefusals, want.Skips, want.SkipInstrs, want.ReadRefusals)
	}
}

// traceDigest is a Tracer that folds the event stream into a running hash
// and keeps one reading per CTA, so two streams of millions of events compare
// in a few words and a mismatch names the CTA it starts in.
type traceDigest struct {
	h, n uint64
	ctas [][2]uint64
}

func (d *traceDigest) add(ev byte, a, b int, at int64) {
	for _, x := range [...]uint64{uint64(ev), uint64(a), uint64(b), uint64(at)} {
		d.h = (d.h ^ x) * 0x100000001b3
	}
	d.n++
}

func (d *traceDigest) OnCTAStart(l *device.Launch, at int64) {
	d.add('S', l.ThreadsPerCTA(), l.Kernel.NumRegs, at)
}
func (d *traceDigest) On(ev Event) { d.add(byte(ev.Kind), ev.Thread, int(ev.Index), ev.At) }
func (d *traceDigest) OnCTAEnd(at int64) {
	d.add('E', 0, 0, at)
	d.ctas = append(d.ctas, [2]uint64{d.h, d.n})
}

// sameTrace runs the job traced with opts on both executors and compares the
// event streams and the runs.
func sameTrace(t *testing.T, name string, job *device.Job, opts Options) {
	t.Helper()
	var dg, dw traceDigest
	opts.Trace = &dg
	got := Run(job, opts)
	var want *Result
	opts.Trace = &dw
	onReference(func() { want = Run(job, opts) })
	sameOutcome(t, name+" traced", got, want)
	if dg.n == 0 {
		t.Fatalf("%s: traced run reported no events", name)
	}
	for i := range dg.ctas {
		if i >= len(dw.ctas) || dg.ctas[i] != dw.ctas[i] {
			t.Fatalf("%s: trace diverges in CTA %d (of %d, reference %d)", name, i, len(dg.ctas), len(dw.ctas))
		}
	}
	if dg.n != dw.n || len(dg.ctas) != len(dw.ctas) {
		t.Fatalf("%s: %d trace events over %d CTAs, reference %d over %d", name, dg.n, len(dg.ctas), dw.n, len(dw.ctas))
	}
}

var injectModes = []InjectMode{InjectDst, InjectDstLoad, InjectUse}

// sameInjections runs sites injections per mode, spread over the job's
// candidates and over low and high bits, each from the start of the job and
// forked from its checkpoint with the join and the skip on, on both
// executors, with every probed diff audited.
func sameInjections(t *testing.T, job *device.Job, g *Result, sites int) (runs, joined, dues int) {
	t.Helper()
	defer auditDiffs(t)()
	bits := [...]uint8{30, 2, 17, 9, 31, 0}
	for _, mode := range injectModes {
		total := candidates(mode, g.DstCands, g.LoadCands, g.UseCands)
		for i := 0; i < sites && total > 0; i++ {
			inj := Injection{Mode: mode, Index: total * int64(2*i+1) / int64(2*sites), Bit: bits[(i+int(mode))%len(bits)]}
			for _, forked := range []bool{false, true} {
				opts := Options{MaxDynInstrs: 10 * g.DynInstrs, Inject: &inj}
				if forked {
					opts.Resume, opts.ResumeAt = g.Checkpoints, g.Checkpoints.ForkPoint(inj)
				}
				got, want := onBoth(func() *Result { return Run(job, opts) })
				sameOutcome(t, fmt.Sprintf("%s %+v forked=%v", job.Name, inj, forked), got, want)
				runs++
				if got.Joined {
					joined++
				}
				if got.Err != nil {
					dues++
				}
			}
		}
	}
	return runs, joined, dues
}

// TestReferenceParityAllJobs: on all 11 applications, plain and
// TMR-hardened, the µop executor and the reference executor agree on a
// fault-free recording run field for field (output, counters, every
// per-kernel window, every boundary and the whole memory log), on sampled
// injections in all three modes from the start and forked with the join, and
// on the traced event stream.
func TestReferenceParityAllJobs(t *testing.T) {
	sites := 6
	if testing.Short() || raceDetector {
		sites = 1
	}
	var runs, joined, dues int
	for i, job := range allJobs() {
		got, want := onBoth(func() *Result { return Run(job, Options{Record: true}) })
		sameRecord(t, job.Name, got, want)
		if got.Err != nil || got.TimedOut {
			t.Fatalf("%s: golden run failed: %v", job.Name, got.Err)
		}
		r, j, d := sameInjections(t, job, got, sites)
		runs, joined, dues = runs+r, joined+j, dues+d
		// The traced runs are the slowest; under -short and -race the
		// hardened variants (three times the plain work) are left out.
		if i%2 == 0 || !(testing.Short() || raceDetector) {
			sameTrace(t, job.Name, job, Options{})
		}
	}
	t.Logf("%d injection runs, %d joined, %d ended in a fault", runs, joined, dues)
	if joined == 0 || dues == 0 {
		t.Errorf("an axis of the matrix is vacuous: %d joined, %d faults in %d runs", joined, dues, runs)
	}
}

// TestOneExecutorOutsideTests pins where the reference executor can run: only
// inside onReference. Every kind of run the package offers — plain, window-
// collecting, recording, traced, and injected in each mode from the
// start and forked — goes through the one CTA loop of funcsim.go and steps
// the reference not once; inside onReference the same calls do reach it.
func TestOneExecutorOutsideTests(t *testing.T) {
	job := squareJob(128)
	everyKind := func() {
		g := Run(job, Options{Record: true})
		Run(job, Options{})
		Run(job, Options{CollectWindows: true})
		Run(job, Options{Trace: &traceDigest{}})
		for _, mode := range injectModes {
			inj := Injection{Mode: mode, Index: candidates(mode, g.DstCands, g.LoadCands, g.UseCands) / 2, Bit: 5}
			Run(job, Options{Inject: &inj})
			Run(job, Options{Inject: &inj, Resume: g.Checkpoints, ResumeAt: g.Checkpoints.ForkPoint(inj)})
		}
	}
	before := referenceSteps.Load()
	everyKind()
	if n := referenceSteps.Load() - before; n != 0 {
		t.Fatalf("%d reference steps outside onReference", n)
	}
	onReference(everyKind)
	if referenceSteps.Load() == before {
		t.Fatal("onReference did not reach the reference executor")
	}
}
