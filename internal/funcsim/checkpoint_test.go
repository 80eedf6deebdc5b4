package funcsim

import (
	"bytes"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/harden"
	"gpurel/internal/kernels"
)

// allJobs returns the 11 applications plain and TMR-hardened.
func allJobs() []*device.Job {
	var jobs []*device.Job
	for _, app := range kernels.All() {
		jobs = append(jobs, app.Build(), harden.TMR(app.Build()))
	}
	return jobs
}

// TestResumeEveryBoundary: a fault-free run picked up at any recorded
// boundary of any job ends exactly where the recorded run ended — output,
// thread-instructions and all three candidate counters — so a boundary holds
// everything that crosses it.
func TestResumeEveryBoundary(t *testing.T) {
	boundaries := 0
	for _, job := range allJobs() {
		g := Run(job, Options{Record: true})
		if g.Err != nil || g.TimedOut {
			t.Fatalf("%s: golden run failed: %v", job.Name, g.Err)
		}
		cps := g.Checkpoints
		ctas := 0
		for _, st := range job.Steps {
			if st.Launch != nil {
				ctas += st.Launch.NumCTAs()
			}
		}
		if cps.Len() < ctas {
			t.Errorf("%s: %d boundaries for a schedule of %d CTAs", job.Name, cps.Len(), ctas)
		}
		for k := 0; k < cps.Len(); k++ {
			r := Run(job, Options{CollectWindows: true, Resume: cps, ResumeAt: k})
			if r.Err != nil || r.TimedOut || r.Joined {
				t.Fatalf("%s resumed at %d: err %v, timed out %v, joined %v", job.Name, k, r.Err, r.TimedOut, r.Joined)
			}
			if !bytes.Equal(r.Output, g.Output) || r.DUEFlag != g.DUEFlag {
				t.Errorf("%s resumed at %d: output differs from golden", job.Name, k)
			}
			if r.DynInstrs != g.DynInstrs || r.DstCands != g.DstCands || r.LoadCands != g.LoadCands || r.UseCands != g.UseCands {
				t.Errorf("%s resumed at %d: counters %d/%d/%d/%d, golden %d/%d/%d/%d", job.Name, k,
					r.DynInstrs, r.DstCands, r.LoadCands, r.UseCands, g.DynInstrs, g.DstCands, g.LoadCands, g.UseCands)
			}
		}
		boundaries += cps.Len()
	}
	if boundaries < 22*4 {
		t.Errorf("only %d boundaries over 22 jobs", boundaries)
	}
}

// TestTrimmedMemoryMatchesFull: running on the footprint copy of an image
// gives the result of running on the full one. The full run is forced by
// allocating the rest of the device, which moves the mark to the end of
// memory (a one-copy Replicate is a full-capacity copy with the same layout
// that can still allocate).
func TestTrimmedMemoryMatchesFull(t *testing.T) {
	for _, job := range allJobs() {
		full := *job
		full.Mem, _ = job.Mem.Replicate(1, job.Mem.Size()-int(job.Mem.Used()+255)&^255)
		full.Mem.Alloc("rest", full.Mem.Size()-int(full.Mem.Used())-256)
		if int(full.Mem.Used()) < full.Mem.Size()-256 {
			t.Fatalf("%s: padded to %d of %d: not a full image", job.Name, full.Mem.Used(), full.Mem.Size())
		}
		if job.Mem.Size() == kernels.MemCapacity && int(job.Mem.Used())*32 > job.Mem.Size() {
			t.Errorf("%s: uses %d of %d bytes: trimming is no longer worth testing here", job.Name, job.Mem.Used(), job.Mem.Size())
		}
		a, b := Run(job, Options{CollectWindows: true}), Run(&full, Options{CollectWindows: true})
		if a.Err != nil || b.Err != nil || a.TimedOut || b.TimedOut {
			t.Fatalf("%s: trimmed err %v, full err %v", job.Name, a.Err, b.Err)
		}
		if !bytes.Equal(a.Output, b.Output) || a.DUEFlag != b.DUEFlag ||
			a.DynInstrs != b.DynInstrs || a.DstCands != b.DstCands || a.LoadCands != b.LoadCands || a.UseCands != b.UseCands {
			t.Errorf("%s: trimmed and full runs differ", job.Name)
		}
	}
}

// TestJoinBudgetArithmetic: a run that joins with a different instruction
// count than golden (its faulty CTA took another path, then memory came back)
// reports the count a whole replay reports, and times out exactly when the
// replay does — including when the budget runs out inside the suffix the
// join never executed.
func TestJoinBudgetArithmetic(t *testing.T) {
	job := kernels.PathFinder().Build()
	g := Run(job, Options{Record: true})
	cps := g.Checkpoints
	checked := 0
	for idx := int64(0); idx < g.DstCands && checked < 3; idx += 37 {
		inj := Injection{Mode: InjectDst, Index: idx, Bit: uint8(idx % 32)}
		forked := Run(job, Options{Inject: &inj, Resume: cps, ResumeAt: cps.ForkPoint(inj)})
		if !forked.Joined || forked.DynInstrs == g.DynInstrs || forked.JoinSkipped == 0 {
			continue
		}
		checked++
		replay := Run(job, Options{Inject: &inj})
		if replay.DynInstrs != forked.DynInstrs || !bytes.Equal(replay.Output, forked.Output) {
			t.Fatalf("site %d: joined run %d thread-instructions, replay %d", idx, forked.DynInstrs, replay.DynInstrs)
		}
		for _, budget := range []int64{replay.DynInstrs - 1, replay.DynInstrs} {
			f := Run(job, Options{MaxDynInstrs: budget, Inject: &inj, Resume: cps, ResumeAt: cps.ForkPoint(inj)})
			r := Run(job, Options{MaxDynInstrs: budget, Inject: &inj})
			if !f.Joined || f.TimedOut != r.TimedOut || f.TimedOut != (budget < replay.DynInstrs) {
				t.Errorf("site %d budget %d: joined %v, timed out %v, replay timed out %v", idx, budget, f.Joined, f.TimedOut, r.TimedOut)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no injection joined with a changed instruction count")
	}
}

// TestNoJoinBeforeFault: a run resumed earlier than its fork point crosses
// boundaries where it still is the golden run; it must not take that for a
// join and lose the fault.
func TestNoJoinBeforeFault(t *testing.T) {
	job := kernels.PathFinder().Build()
	g := Run(job, Options{Record: true})
	cps := g.Checkpoints
	corrupted := 0
	for idx := g.DstCands - 1; idx > g.DstCands/2 && corrupted < 3; idx -= 101 {
		inj := Injection{Mode: InjectDst, Index: idx, Bit: 30}
		replay := Run(job, Options{Inject: &inj})
		if replay.Err != nil || bytes.Equal(replay.Output, g.Output) {
			continue
		}
		corrupted++
		if cps.ForkPoint(inj) < 2 {
			t.Fatalf("site %d forks at boundary %d: not a late site", idx, cps.ForkPoint(inj))
		}
		early := Run(job, Options{Inject: &inj, Resume: cps, ResumeAt: 0})
		if early.Err != nil || !bytes.Equal(early.Output, replay.Output) || early.DynInstrs != replay.DynInstrs {
			t.Errorf("site %d resumed at the start: joined %v, output equals replay %v", idx, early.Joined, bytes.Equal(early.Output, replay.Output))
		}
	}
	if corrupted == 0 {
		t.Fatal("no late injection corrupted the output")
	}
}

// TestForkPoint: the fork point is the last boundary whose counter, in the
// injection's own candidate space, has not passed the site.
func TestForkPoint(t *testing.T) {
	job := squareJob(128) // one launch, two CTAs
	g := Run(job, Options{Record: true})
	cps := g.Checkpoints
	if cps.Len() != 2 || cps.DynInstrsAt(0) != 0 || cps.DynInstrsAt(1) == 0 || cps.DeltaBytes() == 0 {
		t.Fatalf("%d boundaries, %d thread-instructions at the second, %d delta bytes", cps.Len(), cps.DynInstrsAt(1), cps.DeltaBytes())
	}
	half := map[InjectMode]int64{InjectDst: g.DstCands / 2, InjectDstLoad: g.LoadCands / 2, InjectUse: g.UseCands / 2}
	for mode, h := range half {
		for _, c := range []struct {
			idx  int64
			want int
		}{{0, 0}, {h - 1, 0}, {h, 1}, {2*h - 1, 1}} {
			if got := cps.ForkPoint(Injection{Mode: mode, Index: c.idx}); got != c.want {
				t.Errorf("mode %d site %d: fork point %d, want %d", mode, c.idx, got, c.want)
			}
		}
	}
}
