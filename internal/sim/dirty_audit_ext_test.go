package sim_test

import (
	"math/rand"
	"testing"

	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/fuzzprog"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
	"gpurel/internal/sim"
)

// The dirty-bit soundness audit (dirty_audit_test.go) over the runs that
// trust the bits: dense-grid golden captures of every parity job, forked
// faulty runs that restore and join on pooled machines, and a pooled
// machine handed from one application to another.

func checkAudit(t *testing.T, audits int64, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if audits == 0 {
		t.Fatal("no capture, restore or join trusted the dirty bits: nothing was audited")
	}
	t.Logf("%d audits", audits)
}

// TestDirtyAuditGoldens: every capture with a base, on a 256-point grid, of
// every shipped application plain, under TMR and under selective hardening.
func TestDirtyAuditGoldens(t *testing.T) {
	cfg := gpu.Volta()
	for _, pj := range parityJobs(t) {
		t.Run(pj.name, func(t *testing.T) {
			golden := sim.Run(pj.build(), cfg, sim.Options{})
			set := sim.NewSnapshotSet(golden.Cycles/256+1, 0)
			audits, err := sim.AuditDirty(func() { sim.Run(pj.build(), cfg, sim.Options{Checkpoint: set}) })
			checkAudit(t, audits, err)
			if want := int64(set.Len() - 1); audits != want {
				t.Errorf("%d audits for %d captures with a base", audits, want)
			}
		})
	}
}

// TestDirtyAuditResumedFaults: forked runs with transient, wide, stuck-at
// and MBU faults in RF, SMEM, L1D, L1T and L2, restored onto pooled machines
// and joined against the golden grid. VA exercises the caches, LUD shared
// memory.
func TestDirtyAuditResumedFaults(t *testing.T) {
	cfg := gpu.Volta()
	runs := 16
	if testing.Short() || raceDetector {
		runs = 4
	}
	for _, name := range []string{"VA", "LUD"} {
		t.Run(name, func(t *testing.T) {
			job := buildApp(t, name)
			probe, err := microfi.Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := microfi.GoldenCheckpointed(job, cfg, microfi.CheckpointSpec{Stride: probe.Res.Cycles/64 + 1, Converge: true})
			if err != nil {
				t.Fatal(err)
			}
			audits, err := sim.AuditDirty(func() {
				for _, mdl := range storageModels() {
					for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM, gpu.L1D, gpu.L1T, gpu.L2} {
						tgt := microfi.Target{Structure: st, Model: mdl}
						campaign.Run(campaign.Options{Runs: runs, Seed: 11}, func(run int, rng *rand.Rand) faults.Result {
							return microfi.Inject(job, g, tgt, rng)
						})
					}
				}
			})
			checkAudit(t, audits, err)
		})
	}
}

// TestDirtyAuditPoolAcrossApps: one run pool serves forked faulty runs of two
// applications whose device images have the same footprint, alternately, so
// a machine last synced against one application's snapshot restores the
// other's. Each run must also equal its brute-force twin.
func TestDirtyAuditPoolAcrossApps(t *testing.T) {
	cfg := gpu.Volta()
	type app struct {
		job    *device.Job
		golden *sim.Result
		snaps  *sim.SnapshotSet
	}
	var apps []app
	for _, name := range []string{"HotSpot", "PathFinder"} {
		job := buildApp(t, name)
		golden := sim.Run(job, cfg, sim.Options{})
		snaps := sim.NewSnapshotSet(golden.Cycles/32+1, 0)
		sim.Run(job, cfg, sim.Options{Checkpoint: snaps})
		apps = append(apps, app{job, golden, snaps})
	}
	if a, b := apps[0].job.Mem.Footprint(), apps[1].job.Mem.Footprint(); a != b {
		t.Fatalf("footprints %d and %d differ: the pool would not share the machine", a, b)
	}
	pool := sim.NewRunPool()
	structures := []gpu.Structure{gpu.RF, gpu.SMEM, gpu.L1D, gpu.L2}
	mdl := faultmodel.Transient{Width: 1}
	audits, err := sim.AuditDirty(func() {
		for i := 0; i < 24; i++ {
			a := apps[i%2]
			rng := rand.New(rand.NewSource(int64(i)))
			cycle := 1 + rng.Int63n(a.golden.Cycles)
			st := structures[i/2%len(structures)]
			opts := sim.Options{MaxCycles: a.golden.Cycles * 10, AtCycle: cycle}
			brute := opts
			brute.OnCycle = func(m *sim.Machine) { mdl.Arm(m, st, rand.New(rand.NewSource(int64(i)))) }
			want := sim.Run(a.job, cfg, brute)
			forked := brute
			forked.Resume, forked.Converge, forked.Pool = a.snaps.Before(cycle), a.snaps, pool
			got := sim.Run(a.job, cfg, forked)
			if !got.Converged {
				sameResult(t, "pooled fork", got, "brute force", want)
			}
		}
	})
	checkAudit(t, audits, err)
}

// TestShippedProgramsValidate pins the precondition of issue-time register
// marking (SM.markWarpRF): every program the simulator is given on a shipped
// path passes isa.Program.Validate, so no instruction names a register at or
// above its NumRegs and every write of an issue stays inside the issuing
// warp's register window. The paths are the applications plain, under TMR
// and under selective hardening of every single kernel, programs decoded
// from their serialized form, and the fuzz generator's programs.
func TestShippedProgramsValidate(t *testing.T) {
	check := func(label string, p *isa.Program) {
		t.Helper()
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		q, err := isa.UnmarshalProgram(p.Marshal())
		if err != nil {
			t.Errorf("%s decoded: %v", label, err)
		} else if q.NumRegs != p.NumRegs {
			t.Errorf("%s decoded: %d registers, want %d", label, q.NumRegs, p.NumRegs)
		}
	}
	launches := func(label string, job *device.Job) {
		for _, st := range job.Steps {
			if st.Launch != nil {
				check(label+" "+st.Launch.Name(), st.Launch.Kernel)
			}
		}
	}
	for _, app := range kernels.All() {
		launches(app.Name, app.Build())
		launches(app.Name+"-TMR", harden.TMR(app.Build()))
		for _, k := range app.Kernels {
			launches(app.Name+"-Selective-"+k, harden.Selective(app.Build(), harden.NewSet(k)))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		data := make([]byte, rng.Intn(96))
		rng.Read(data)
		launches("fuzzprog", fuzzprog.Job(fuzzprog.Program(data)))
	}
}
