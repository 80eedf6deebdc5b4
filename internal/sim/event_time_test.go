package sim

import (
	"hash/fnv"
	"slices"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
)

// Event-driven time: runLaunch jumps over the cycles in which nothing can be
// placed, fired or issued. The reference core never publishes nextReady, so
// inside onReference the same loop steps every cycle; these tests hold the
// jump to that cycle-by-cycle oracle at the places where a clamp decides
// where a jump must land (the injection cycle, a snapshot grid, the budget)
// and on the runs it helps most (warps parked for good).

// activity records the cycles at which the schedule did something.
type activity struct{ cycles []int64 }

func (a *activity) note(c int64) {
	if n := len(a.cycles); n == 0 || a.cycles[n-1] != c {
		a.cycles = append(a.cycles, c)
	}
}
func (a *activity) OnCTAPlace(cta, sm, rfBase, rfSize, smBase, smSize, threads int, prog *isa.Program, cycle int64) {
	a.note(cycle)
}
func (a *activity) OnIssue(cta, w, pc int, mask, selA uint32, cycle int64) { a.note(cycle) }
func (a *activity) OnShared(cta, word int, store bool, cycle int64)        { a.note(cycle) }
func (a *activity) OnCTARetire(cta int, cycle int64)                       { a.note(cycle) }

// idle reports whether the machine does nothing in cycle c and did nothing
// in c-1 either: the cycle after an issue is still stepped (the SM finds
// nothing to issue and publishes its wake-up time), so only such cycles lie
// inside a jump.
func (a *activity) idle(c int64) bool {
	_, at := slices.BinarySearch(a.cycles, c)
	_, before := slices.BinarySearch(a.cycles, c-1)
	return !at && !before
}

// longestIdleSpan returns the first and last cycle of the longest run of
// cycles without a placement, issue or retirement.
func (a *activity) longestIdleSpan() (first, last int64) {
	for i := 1; i < len(a.cycles); i++ {
		if lo, hi := a.cycles[i-1]+1, a.cycles[i]-1; hi-lo > last-first {
			first, last = lo, hi
		}
	}
	return first, last
}

// vaIdle builds VA, the most latency-bound shipped job (96 % of its cycles
// are idle), and returns its golden run with the schedule's active cycles.
func vaIdle(t *testing.T) (*device.Job, *Result, *activity) {
	t.Helper()
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	job := app.Build()
	act := &activity{}
	golden := Run(job, gpu.Volta(), Options{SchedTrace: act})
	if golden.Err != nil || golden.TimedOut {
		t.Fatalf("golden run failed: %v timeout=%v", golden.Err, golden.TimedOut)
	}
	if golden.Stepped >= golden.Cycles/2 {
		t.Fatalf("VA stepped %d of %d cycles: the jump does not engage", golden.Stepped, golden.Cycles)
	}
	return job, golden, act
}

// machineDigest hashes what an injector can reach through the hook's
// Machine: every SM's register file and shared memory and every L2 line.
func machineDigest(m *Machine) uint64 {
	h := fnv.New64a()
	var w [4]byte
	put := func(v uint32) {
		w[0], w[1], w[2], w[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(w[:])
	}
	for _, sm := range m.SMs {
		for _, v := range sm.RF {
			put(v)
		}
		h.Write(sm.Smem)
	}
	for i := 0; i < m.L2.NumLines(); i++ {
		ln := m.L2.LineAt(i)
		put(ln.Addr)
		put(uint32(ln.LRU))
		if ln.Valid {
			put(1)
		}
		if ln.Dirty {
			put(2)
		}
		h.Write(ln.Data)
	}
	return h.Sum64()
}

// TestJumpLandsOnInjectionCycle: wherever AtCycle falls relative to an idle
// span — its first cycle (stepped, nothing issues), its middle (inside the
// jump, so the AtCycle clamp alone makes the loop stop there), its last
// cycle, or the busy cycle after it — the hook sees the machine the
// cycle-by-cycle oracle shows it, and the faulty suffix (one flipped and one
// stuck register bit, one warp woken early) ends in the same Result.
func TestJumpLandsOnInjectionCycle(t *testing.T) {
	cfg := gpu.Volta()
	job, golden, act := vaIdle(t)
	first, last := act.longestIdleSpan()
	if last-first < 100 {
		t.Fatalf("longest idle span of VA is [%d, %d]: too short to test a jump", first, last)
	}
	for _, c := range []struct {
		name string
		at   int64
	}{
		{"first", first}, {"middle", (first + last) / 2}, {"last", last}, {"one-past", last + 1},
	} {
		for _, persistent := range []bool{false, true} {
			name := c.name
			if persistent {
				name += "-persistent"
			}
			t.Run(name, func(t *testing.T) {
				run := func() (*Result, uint64) {
					var seen uint64
					var cell *uint32
					opts := Options{
						MaxCycles: golden.Cycles * 10,
						AtCycle:   c.at,
						OnCycle: func(m *Machine) {
							seen = machineDigest(m)
							for _, sm := range m.SMs {
								blocks := sm.AllocatedRF()
								wc, ok := sm.WarpSlot(0)
								if len(blocks) == 0 || !ok {
									continue
								}
								cell = &sm.RF[blocks[0].Base+blocks[0].Size/2]
								*cell ^= 1 << 4
								// Zero the warp's ready timestamp: it issues in this
								// very cycle, which is what a hook fired late, at the
								// end of the span, could not reproduce.
								for bit := uint(0); bit < schedDoneBit; bit++ {
									wc.ForceSchedBit(bit, false)
								}
								return
							}
						},
					}
					if persistent {
						opts.EachCycle = func(*Machine) {
							if cell != nil {
								*cell |= 1 << 9
							}
						}
					}
					return Run(job, cfg, opts), seen
				}
				fast, fastSeen := run()
				var slow *Result
				var slowSeen uint64
				onReference(func() { slow, slowSeen = run() })
				if fastSeen == 0 || fastSeen != slowSeen {
					t.Errorf("the hook at cycle %d saw machine %016x on the µop core, %016x on the reference core", c.at, fastSeen, slowSeen)
				}
				resultsEqual(t, "faulty run", fast, slow)
				if want := golden.Cycles*10 + 1; slow.TimedOut && slow.Stepped != want {
					t.Errorf("the reference core stepped %d cycles of a timed-out run, want %d", slow.Stepped, want)
				}
				if !slow.TimedOut && slow.Stepped != slow.Cycles {
					t.Errorf("the reference core stepped %d of %d cycles", slow.Stepped, slow.Cycles)
				}
				if fast.Stepped >= slow.Stepped {
					t.Errorf("the µop core stepped %d cycles, the reference core %d: no jump", fast.Stepped, slow.Stepped)
				}
			})
		}
	}
}

// snapshotsEqual reports whether two snapshots hold the same machine: a
// runner restored from a is compared against b in full.
func snapshotsEqual(job *device.Job, cfg gpu.Config, a, b *Snapshot) bool {
	r := newRunner(job, cfg, Options{})
	r.restore(a)
	return r.matches(b)
}

// TestJumpServesSnapshotGrid: a stride far shorter than VA's idle spans puts
// most grid cycles inside a jump, so each is reached only through the grid
// clamp. The set the µop core captures must equal the reference core's
// snapshot for snapshot — also when the budget widens the stride mid-run,
// which moves the grid the following jumps are clamped to.
func TestJumpServesSnapshotGrid(t *testing.T) {
	cfg := gpu.Volta()
	job, golden, act := vaIdle(t)
	const stride = 37
	capture := func(budget int64) (*SnapshotSet, *Result) {
		set := NewSnapshotSet(stride, budget)
		return set, Run(job, cfg, Options{Checkpoint: set})
	}
	unlimited, _ := capture(0)
	for _, c := range []struct {
		name   string
		budget int64
	}{{"fixed-stride", 0}, {"widened", unlimited.Bytes() / 3}} {
		t.Run(c.name, func(t *testing.T) {
			fast, fastRes := capture(c.budget)
			var slow *SnapshotSet
			var slowRes *Result
			onReference(func() { slow, slowRes = capture(c.budget) })
			resultsEqual(t, "checkpointing run", fastRes, slowRes)
			resultsEqual(t, "checkpointing run vs golden", fastRes, golden)
			if fastRes.Stepped >= slowRes.Stepped/2 {
				t.Errorf("the µop core stepped %d cycles, the reference core %d", fastRes.Stepped, slowRes.Stepped)
			}
			if fast.Len() != slow.Len() || fast.Stride() != slow.Stride() || fast.Evicted() != slow.Evicted() || fast.Bytes() != slow.Bytes() {
				t.Fatalf("sets differ: µop %d snapshots stride %d evicted %d bytes %d, reference %d / %d / %d / %d",
					fast.Len(), fast.Stride(), fast.Evicted(), fast.Bytes(), slow.Len(), slow.Stride(), slow.Evicted(), slow.Bytes())
			}
			if widened := fast.Stride() != stride; widened != (c.budget > 0) {
				t.Fatalf("stride is %d with budget %d", fast.Stride(), c.budget)
			}
			if want := int(golden.Cycles / fast.Stride()); fast.Len() != want {
				t.Fatalf("%d snapshots, want one per grid cycle = %d", fast.Len(), want)
			}
			inJump := 0
			for i := 0; i < fast.Len(); i++ {
				a, b := fast.Snap(i), slow.Snap(i)
				if a.Cycle() != int64(i+1)*fast.Stride() || b.Cycle() != a.Cycle() {
					t.Fatalf("snapshot %d: µop cycle %d, reference cycle %d, grid cycle %d", i, a.Cycle(), b.Cycle(), int64(i+1)*fast.Stride())
				}
				if !snapshotsEqual(job, cfg, a, b) {
					t.Fatalf("snapshot %d (cycle %d) differs between the cores", i, a.Cycle())
				}
				if act.idle(a.Cycle()) {
					inJump++
				}
			}
			if inJump < fast.Len()/2 {
				t.Errorf("only %d of %d grid cycles lie inside a jump", inJump, fast.Len())
			}
			// Joins are served off the same grid: a run whose hook changes
			// nothing inside an idle span is in golden state at the next grid
			// cycle, which it reaches by a jump.
			first, last := act.longestIdleSpan()
			opts := Options{MaxCycles: golden.Cycles * 10, AtCycle: (first + last) / 2, OnCycle: func(*Machine) {}, Converge: fast}
			joined := Run(job, cfg, opts)
			want := fast.nextGrid(opts.AtCycle - 1)
			if !joined.Converged || joined.ConvergedAt != want {
				t.Errorf("no-op injection at cycle %d: converged=%v at %d, want a join at cycle %d", opts.AtCycle, joined.Converged, joined.ConvergedAt, want)
			}
		})
	}
}

// TestJumpStopsAtBudget: a budget that runs out in the middle of an idle
// span ends the run at the same cycle, with the same occupancy sum, as
// counting there one cycle at a time.
func TestJumpStopsAtBudget(t *testing.T) {
	cfg := gpu.Volta()
	job, _, act := vaIdle(t)
	first, last := act.longestIdleSpan()
	for _, budget := range []int64{first - 1, first, (first + last) / 2, last, last + 1} {
		fast := Run(job, cfg, Options{MaxCycles: budget})
		var slow *Result
		onReference(func() { slow = Run(job, cfg, Options{MaxCycles: budget}) })
		if !fast.TimedOut || !slow.TimedOut {
			t.Fatalf("budget %d: timeout µop=%v reference=%v", budget, fast.TimedOut, slow.TimedOut)
		}
		resultsEqual(t, "timed-out run", fast, slow)
		if slow.Stepped != budget+1 {
			t.Errorf("budget %d: the reference core stepped %d cycles, want %d", budget, slow.Stepped, budget+1)
		}
		if fast.Stepped >= slow.Stepped {
			t.Errorf("budget %d: the µop core stepped %d cycles, the reference core %d", budget, fast.Stepped, slow.Stepped)
		}
	}
}

// TestParkedWarpsJumpToTimeout: a latch forced so that no resident warp can
// ever issue again used to walk TimeoutFactor × golden cycles of full
// rescans to reach its Timeout. Now the first stepped cycle that finds every
// warp parked jumps to the budget; the oracle still walks, and both agree.
func TestParkedWarpsJumpToTimeout(t *testing.T) {
	cfg := gpu.Volta()
	forceDone := func(wc WarpCtl) { wc.ForceSchedBit(schedDoneBit, true) }
	forceBarrier := func(wc WarpCtl) { wc.ForceBarrier(true) }
	for _, c := range []struct {
		name  string
		prog  *isa.Program
		block int
		force func(WarpCtl)
	}{
		// One warp: the latch parks the whole CTA at once.
		{"done-latch", addOne(32), 32, forceDone},
		{"barrier-latch", addOne(32), 32, forceBarrier},
		// Four warps and a real barrier: slot 0 is released with the others
		// each time they arrive, is re-parked at the top of the next cycle,
		// and is left behind for good when the last of them exits.
		{"barrier-latch-4-warps", smemExchange(), 128, forceBarrier},
	} {
		t.Run(c.name, func(t *testing.T) {
			job, _, _ := buildJob(c.block, c.prog, 1, c.block)
			golden := Run(job, cfg, Options{})
			if golden.Err != nil || golden.TimedOut {
				t.Fatalf("golden run failed: %v timeout=%v", golden.Err, golden.TimedOut)
			}
			apply := func(m *Machine) {
				for _, sm := range m.SMs {
					if wc, ok := sm.WarpSlot(0); ok {
						c.force(wc)
					}
				}
			}
			opts := Options{MaxCycles: golden.Cycles * 10, AtCycle: golden.Cycles / 3, OnCycle: apply, EachCycle: apply}
			fast := Run(job, cfg, opts)
			var slow *Result
			onReference(func() { slow = Run(job, cfg, opts) })
			if !fast.TimedOut || !slow.TimedOut {
				t.Fatalf("timeout µop=%v reference=%v (err %v / %v)", fast.TimedOut, slow.TimedOut, fast.Err, slow.Err)
			}
			resultsEqual(t, "parked run", fast, slow)
			if want := opts.MaxCycles + 1; slow.Stepped != want {
				t.Errorf("the reference core stepped %d cycles, want %d", slow.Stepped, want)
			}
			if fast.Stepped >= golden.Cycles+1000 {
				t.Errorf("the µop core stepped %d cycles to time out a run whose golden run has %d", fast.Stepped, golden.Cycles)
			}
		})
	}
}
