package funcsim_test

import (
	"bytes"
	"math/rand"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/funcsim"
	"gpurel/internal/harden"
	"gpurel/internal/kernels"
	"gpurel/internal/softfi"
)

// TestSoftForkJoinAgainstReference closes the triangle softfi's
// TestSoftForkJoinEquivalence leaves open. That test compares a forked and
// joined injection with a replay from the start of the job, both on the µop
// executor; here the replay runs on the reference executor, so the injector's
// fast path — fork, µop execution, post-handler flip, join — is held against
// an unforked run of the independent interpreter, classification for
// classification. It lives here because only this directory's tests can
// switch executors (export_test.go is invisible to other packages' tests);
// the sites are drawn over the whole application, as softfi's Target with no
// kernel does. BFS is the one schedule a fault can bend, LUD has barriers
// and shared memory. Every boundary the forked runs probe has its diff
// audited against the whole memory.
func TestSoftForkJoinAgainstReference(t *testing.T) {
	draws := 40
	if testing.Short() || funcsim.RaceDetector {
		draws = 6 // the replays on the reference dominate, and -race slows it thirtyfold
	}
	modes := []struct {
		soft softfi.Mode
		inj  funcsim.InjectMode
		n    func(*funcsim.Result) int64
	}{
		{softfi.SVF, funcsim.InjectDst, func(r *funcsim.Result) int64 { return r.DstCands }},
		{softfi.SVFLD, funcsim.InjectDstLoad, func(r *funcsim.Result) int64 { return r.LoadCands }},
		{softfi.SVFUse, funcsim.InjectUse, func(r *funcsim.Result) int64 { return r.UseCands }},
	}
	var forks, joins, skips int
	var outcomes [faults.NumOutcomes]int
	stop := funcsim.AuditDiffs(t)
	for _, name := range []string{"BFS", "LUD"} {
		app, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range []*device.Job{app.Build(), harden.TMR(app.Build())} {
			g, err := softfi.Golden(job)
			if err != nil {
				t.Fatal(err)
			}
			var gRef *softfi.GoldenRun
			funcsim.OnReference(func() { gRef, err = softfi.Golden(job) })
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Res.Output, gRef.Res.Output) || g.Res.DynInstrs != gRef.Res.DynInstrs {
				t.Fatalf("%s: golden runs differ between the executors", job.Name)
			}
			budget := 10 * g.Res.DynInstrs
			rng := rand.New(rand.NewSource(int64(len(job.Name))))
			for _, m := range modes {
				for i := 0; i < draws; i++ {
					inj := funcsim.Injection{Mode: m.inj, Index: rng.Int63n(m.n(g.Res)), Bit: uint8(rng.Intn(32))}
					cps := g.Res.Checkpoints
					fork := cps.ForkPoint(inj)
					fast := funcsim.Run(job, funcsim.Options{MaxDynInstrs: budget, Inject: &inj, Resume: cps, ResumeAt: fork})
					var replay *funcsim.Result
					funcsim.OnReference(func() {
						replay = funcsim.Run(job, funcsim.Options{MaxDynInstrs: budget, Inject: &inj})
					})
					got, want := softfi.Classify(g, fast), softfi.Classify(gRef, replay)
					if got != want {
						t.Fatalf("%s %v %+v: fork-join on µops %+v, replay on the reference %+v", job.Name, m.soft, inj, got, want)
					}
					if fork > 0 {
						forks++
					}
					if fast.Joined {
						joins++
					}
					skips += fast.Skips
					outcomes[want.Outcome]++
				}
			}
		}
	}
	audited := stop()
	t.Logf("%d forked, %d joined, %d CTAs skipped, %d boundaries audited, outcomes (masked, SDC, timeout, DUE) %v",
		forks, joins, skips, audited, outcomes)
	if forks == 0 || joins == 0 || skips == 0 || audited == 0 ||
		outcomes[faults.Masked] == 0 || outcomes[faults.SDC] == 0 || outcomes[faults.DUE] == 0 {
		t.Errorf("an axis of the matrix is vacuous: %d forks, %d joins, %d skips, %d audits, outcomes %v", forks, joins, skips, audited, outcomes)
	}
}
