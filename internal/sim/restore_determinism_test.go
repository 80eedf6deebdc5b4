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

type sharedEvent struct {
	cta, word int
	store     bool
	cycle     int64
}

// recTracer records the full deterministic schedule of a run.
type recTracer struct {
	issues  []issueEvent
	places  []placeEvent
	shared  []sharedEvent
	retires []placeEvent // cta+cycle only; other fields zero
}

func (r *recTracer) OnCTAPlace(cta, sm, rfBase, rfSize, smBase, smSize, threads int, prog *isa.Program, cycle int64) {
	r.places = append(r.places, placeEvent{cta, sm, rfBase, rfSize, smBase, smSize, threads, cycle})
}

func (r *recTracer) OnIssue(cta, w, pc int, mask, selA uint32, cycle int64) {
	r.issues = append(r.issues, issueEvent{cta, w, pc, mask, selA, cycle})
}

func (r *recTracer) OnShared(cta, word int, store bool, cycle int64) {
	r.shared = append(r.shared, sharedEvent{cta, word, store, cycle})
}

func (r *recTracer) OnCTARetire(cta int, cycle int64) {
	r.retires = append(r.retires, placeEvent{cta: cta, cycle: cycle})
}

// sameSuffix requires got to be the events of golden strictly after the
// snapshot cycle at (snapshots capture end-of-cycle state).
func sameSuffix[E comparable](t *testing.T, what string, at int64, golden, got []E, cycle func(E) int64) {
	t.Helper()
	var want []E
	for _, e := range golden {
		if cycle(e) > at {
			want = append(want, e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("resume from cycle %d: %d %s, want %d", at, len(got), what, len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("resume from cycle %d: %s %d = %+v, want %+v", at, what, k, got[k], want[k])
		}
	}
}

// TestRestoreScheduleDeterminism: a run resumed from a snapshot must replay
// the golden run's schedule suffix exactly — same CTA ids (dense placement
// order survives restore via the snapshotted id counter), same issue order,
// same active masks, same shared-memory accesses, same cycles. This is the property that makes schedule
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
			if snaps.Len() < 2 || len(golden.shared) == 0 {
				t.Fatalf("%d snapshots captured, %d shared-memory accesses traced", snaps.Len(), len(golden.shared))
			}
			for i := 0; i < snaps.Len(); i++ {
				s := snaps.Snap(i)
				var got recTracer
				res := Run(job, cfg, Options{Resume: s, SchedTrace: &got})
				if res.Err != nil || res.TimedOut {
					t.Fatalf("resume from cycle %d failed: %v timeout=%v", s.Cycle(), res.Err, res.TimedOut)
				}
				// Placements of CTAs already resident at the snapshot do not
				// replay.
				sameSuffix(t, "issues", s.Cycle(), golden.issues, got.issues, func(e issueEvent) int64 { return e.cycle })
				sameSuffix(t, "placements", s.Cycle(), golden.places, got.places, func(e placeEvent) int64 { return e.cycle })
				sameSuffix(t, "shared-memory accesses", s.Cycle(), golden.shared, got.shared, func(e sharedEvent) int64 { return e.cycle })
				sameSuffix(t, "retirements", s.Cycle(), golden.retires, got.retires, func(e placeEvent) int64 { return e.cycle })
			}
		})
	}
}
