package flow_test

import (
	"bytes"
	"reflect"
	"testing"

	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// traceIntervals runs the job fault-free with a Recorder attached and
// returns the finalized interval map plus the run's launch spans.
func traceIntervals(t *testing.T, app kernels.App, cfg gpu.Config) (*flow.Intervals, []sim.LaunchSpan) {
	t.Helper()
	job := app.Build()
	rec := flow.NewRecorder()
	res := sim.Run(job, cfg, sim.Options{SchedTrace: rec})
	if res.Err != nil || res.TimedOut {
		t.Fatalf("%s: golden trace failed: err=%v timedOut=%v", app.Name, res.Err, res.TimedOut)
	}
	iv := rec.Finalize(res.Cycles)
	if err := iv.Check(); err != nil {
		t.Fatalf("%s: interval invariants violated: %v", app.Name, err)
	}
	return iv, res.Spans
}

// TestIntervalsSoundVsDynamic holds the interval map to the machine itself
// on every app. At 8 cycles of every launch, the blocks the intervals hold
// allocated must be the ones each SM has allocated, and inverting every bit
// of every register and shared-memory byte the intervals call dead, on
// every SM at once, must leave the run identical to the fault-free one: a
// dead site is overwritten or released before any read. Exactness, site for
// site against the reference core's access streams, is
// TestIntervalsEqualOracle in internal/sim.
func TestIntervalsSoundVsDynamic(t *testing.T) {
	cfg := gpu.Volta()
	for _, app := range kernels.All() {
		t.Run(app.Name, func(t *testing.T) {
			iv, spans := traceIntervals(t, app, cfg)
			golden := sim.Run(app.Build(), cfg, sim.Options{})
			sites, dead := 0, 0
			// invertDead compares one array's allocated blocks and inverts
			// its dead sites; it returns how many it inverted.
			invertDead := func(cycle int64, sm int, what string, want []sim.RFBlock, got []flow.Blk, live func(sm, idx int, c int64) bool, invert func(idx int)) int {
				if len(got) != len(want) {
					t.Errorf("cycle %d sm %d: %s allocation timeline diverged: intervals %v, machine %v", cycle, sm, what, got, want)
					return 0
				}
				n := 0
				for i, b := range want {
					if got[i] != flow.Blk(b) {
						t.Errorf("cycle %d sm %d: %s block %d is %+v in the intervals, %+v in the machine", cycle, sm, what, i, got[i], b)
						return n
					}
					for idx := b.Base; idx < b.Base+b.Size; idx++ {
						sites++
						if !live(sm, idx, cycle) {
							invert(idx)
							n++
						}
					}
				}
				return n
			}
			for _, span := range spans {
				for s := int64(0); s < 8; s++ {
					cycle := span.Start + 1 + (span.End-span.Start-1)*s/8
					n := 0
					res := sim.Run(app.Build(), cfg, sim.Options{
						MaxCycles: 2 * golden.Cycles,
						AtCycle:   cycle,
						OnCycle: func(m *sim.Machine) {
							for sm, st := range m.SMs {
								n += invertDead(cycle, sm, "register", st.AllocatedRF(), iv.RFBlocksAt(sm, cycle, nil), iv.LiveRF, func(i int) {
									st.RF[i] = ^st.RF[i]
									st.MarkRF(i)
								})
								n += invertDead(cycle, sm, "shared-memory", st.AllocatedSmem(), iv.SmemBlocksAt(sm, cycle, nil), iv.LiveSmem, func(i int) {
									st.Smem[i] = ^st.Smem[i]
									st.MarkSmem(i)
								})
							}
						},
					})
					if res.Err != nil || res.TimedOut || res.DUEFlag || res.Cycles != golden.Cycles ||
						!bytes.Equal(res.Output, golden.Output) || !reflect.DeepEqual(res.PerKernel, golden.PerKernel) {
						t.Fatalf("cycle %d: inverting the %d sites the intervals call dead changed the run: err=%v timeout=%v due=%v cycles %d (golden %d), same output %v",
							cycle, n, res.Err, res.TimedOut, res.DUEFlag, res.Cycles, golden.Cycles, bytes.Equal(res.Output, golden.Output))
					}
					dead += n
				}
			}
			if dead == 0 || dead == sites {
				t.Fatalf("degenerate sample: %d of %d sites dead", dead, sites)
			}
			t.Logf("%s: %d sites, %d dead and inverted without effect", app.Name, sites, dead)
		})
	}
}

// TestIntervalsRFBoundsSane checks the static AVF bracket over the full run
// of every app: well-formed (0 <= lower <= upper <= 1), supported for RF
// and SMEM, and nontrivial (some register is live at some cycle, so the RF
// upper bound cannot be zero).
func TestIntervalsRFBoundsSane(t *testing.T) {
	cfg := gpu.Volta()
	for _, app := range kernels.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			iv, spans := traceIntervals(t, app, cfg)
			var ws []flow.Window
			for _, s := range spans {
				ws = append(ws, flow.Window{Start: s.Start, End: s.End})
			}
			rf := iv.RFBounds(ws)
			if !rf.Supported || rf.Lower < 0 || rf.Upper > 1 || rf.Lower > rf.Upper {
				t.Fatalf("malformed RF bounds %+v", rf)
			}
			if rf.Upper == 0 {
				t.Fatalf("RF upper bound is zero on a run with register traffic")
			}
			sm := iv.SmemBounds(ws)
			if !sm.Supported || sm.Lower < 0 || sm.Upper > 1 || sm.Lower > sm.Upper {
				t.Fatalf("malformed SMEM bounds %+v", sm)
			}
			t.Logf("%s: RF upper %.4f, SMEM upper %.4f", app.Name, rf.Upper, sm.Upper)
		})
	}
}

// TestIntervalsSmemTracked proves shared-memory liveness is actually
// recorded for a smem-using app: some byte of some allocated block must be
// live at some sampled cycle, and the SMEM upper bound must be positive.
func TestIntervalsSmemTracked(t *testing.T) {
	cfg := gpu.Volta()
	for _, name := range []string{"SRADv1", "PathFinder", "BackProp"} {
		var app kernels.App
		for _, a := range kernels.All() {
			if a.Name == name {
				app = a
			}
		}
		t.Run(name, func(t *testing.T) {
			iv, spans := traceIntervals(t, app, cfg)
			var ws []flow.Window
			for _, s := range spans {
				ws = append(ws, flow.Window{Start: s.Start, End: s.End})
			}
			if b := iv.SmemBounds(ws); b.Upper <= 0 {
				t.Fatalf("%s uses shared memory but SMEM upper bound is %v", name, b)
			}
			foundLive := false
			for _, s := range spans {
				for c := s.Start + 1; c <= s.End && !foundLive; c += 1 + (s.End-s.Start)/64 {
					for sm := 0; sm < cfg.NumSMs && !foundLive; sm++ {
						for _, blk := range iv.SmemBlocksAt(sm, c, nil) {
							for b := 0; b < blk.Size; b += 4 {
								if iv.LiveSmem(sm, blk.Base+b, c) {
									foundLive = true
									break
								}
							}
						}
					}
				}
			}
			if !foundLive {
				t.Fatalf("no live shared-memory byte found in any sampled cycle")
			}
		})
	}
}

// TestIntervalsDeadWindowIsDead spot-checks the meaning of an interval gap:
// pick a register with at least one live interval that ends before the run
// does; the cycle right after Hi must be dead until the next interval.
// Exercised indirectly through LiveRF on synthetic queries.
func TestIntervalsQueryEdges(t *testing.T) {
	cfg := gpu.Volta()
	iv, spans := traceIntervals(t, kernels.All()[0], cfg)
	if len(spans) == 0 {
		t.Fatal("no launch spans")
	}
	// Out-of-range queries must be dead, not panic.
	if iv.LiveRF(99, 0, 1) || iv.LiveRF(0, 1<<30, 1) || iv.LiveSmem(99, 0, 1) {
		t.Fatal("out-of-range site reported live")
	}
	if got := iv.RFBlocksAt(99, 1, nil); len(got) != 0 {
		t.Fatal("out-of-range SM has blocks")
	}
	// Cycle 0 precedes every allocation (alloc < c required).
	for sm := 0; sm < cfg.NumSMs; sm++ {
		if got := iv.RFBlocksAt(sm, 0, nil); len(got) != 0 {
			t.Fatalf("blocks allocated at cycle 0: %v", got)
		}
	}
}
