package sim

import (
	"testing"

	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
)

// issueEvent is one OnIssue observation; comparable so traces diff cheaply.
type issueEvent struct {
	cta, w, pc int
	mask, selA uint32
	cycle      int64
}

type placeEvent struct {
	cta, sm, rfBase, rfSize, smBase, smSize, threads int
	cycle                                            int64
}

// recTracer records the full deterministic schedule of a run.
type recTracer struct {
	issues  []issueEvent
	places  []placeEvent
	retires []placeEvent // cta+cycle only; other fields zero
}

func (r *recTracer) OnCTAPlace(cta, sm, rfBase, rfSize, smBase, smSize, threads int, prog *isa.Program, cycle int64) {
	r.places = append(r.places, placeEvent{cta, sm, rfBase, rfSize, smBase, smSize, threads, cycle})
}

func (r *recTracer) OnIssue(cta, w, pc int, mask, selA uint32, cycle int64) {
	r.issues = append(r.issues, issueEvent{cta, w, pc, mask, selA, cycle})
}

func (r *recTracer) OnCTARetire(cta int, cycle int64) {
	r.retires = append(r.retires, placeEvent{cta: cta, cycle: cycle})
}

// TestRestoreScheduleDeterminism: a run resumed from a snapshot must replay
// the golden run's schedule suffix exactly — same CTA ids (dense placement
// order survives restore via the snapshotted id counter), same issue order,
// same active masks, same cycles. This is the property that makes schedule
// traces from forked runs comparable to golden traces, and it regresses
// silently if restore rebuilds scheduler state (CTA ids, issue pointers,
// warp metadata) in any other order than capture saved it. Run under -race
// in CI to also catch unsynchronized state reuse through the run pool.
func TestRestoreScheduleDeterminism(t *testing.T) {
	cfg := gpu.Volta()
	for _, name := range []string{"PathFinder", "LUD"} {
		name := name
		t.Run(name, func(t *testing.T) {
			app, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			job := app.Build()
			var golden recTracer
			probe := Run(app.Build(), cfg, Options{})
			if probe.Err != nil || probe.TimedOut {
				t.Fatalf("golden run failed: %v timeout=%v", probe.Err, probe.TimedOut)
			}
			snaps := NewSnapshotSet(probe.Cycles/8+1, 0)
			ref := Run(job, cfg, Options{Checkpoint: snaps, SchedTrace: &golden})
			if ref.Err != nil || ref.TimedOut {
				t.Fatalf("traced run failed: %v timeout=%v", ref.Err, ref.TimedOut)
			}
			if snaps.Len() < 2 {
				t.Fatalf("only %d snapshots captured", snaps.Len())
			}
			for i := 0; i < snaps.Len(); i++ {
				s := snaps.Snap(i)
				var got recTracer
				res := Run(job, cfg, Options{Resume: s, SchedTrace: &got})
				if res.Err != nil || res.TimedOut {
					t.Fatalf("resume from cycle %d failed: %v timeout=%v", s.Cycle(), res.Err, res.TimedOut)
				}
				// The golden suffix: events strictly after the snapshot cycle
				// (snapshots capture end-of-cycle state). Placements of CTAs
				// already resident at the snapshot do not replay.
				var wantIssues []issueEvent
				for _, e := range golden.issues {
					if e.cycle > s.Cycle() {
						wantIssues = append(wantIssues, e)
					}
				}
				if len(got.issues) != len(wantIssues) {
					t.Fatalf("resume from cycle %d: %d issues, want %d", s.Cycle(), len(got.issues), len(wantIssues))
				}
				for k := range wantIssues {
					if got.issues[k] != wantIssues[k] {
						t.Fatalf("resume from cycle %d: issue %d = %+v, want %+v",
							s.Cycle(), k, got.issues[k], wantIssues[k])
					}
				}
				var wantPlaces []placeEvent
				for _, e := range golden.places {
					if e.cycle > s.Cycle() {
						wantPlaces = append(wantPlaces, e)
					}
				}
				if len(got.places) != len(wantPlaces) {
					t.Fatalf("resume from cycle %d: %d placements, want %d", s.Cycle(), len(got.places), len(wantPlaces))
				}
				for k := range wantPlaces {
					if got.places[k] != wantPlaces[k] {
						t.Fatalf("resume from cycle %d: placement %d = %+v, want %+v",
							s.Cycle(), k, got.places[k], wantPlaces[k])
					}
				}
				var wantRetires []placeEvent
				for _, e := range golden.retires {
					if e.cycle > s.Cycle() {
						wantRetires = append(wantRetires, e)
					}
				}
				if len(got.retires) != len(wantRetires) {
					t.Fatalf("resume from cycle %d: %d retirements, want %d", s.Cycle(), len(got.retires), len(wantRetires))
				}
				for k := range wantRetires {
					if got.retires[k] != wantRetires[k] {
						t.Fatalf("resume from cycle %d: retirement %d = %+v, want %+v",
							s.Cycle(), k, got.retires[k], wantRetires[k])
					}
				}
			}
		})
	}
}
