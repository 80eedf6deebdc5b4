package sim_test

import (
	"slices"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/mem"
	"gpurel/internal/microfi"
	"gpurel/internal/sim"
)

// TestFrameRecordOracle holds the cache frame record that pruning reads
// (microfi.TraceStatic) to the machine it describes. On every parity job a
// fault-free run with a top-of-cycle hook compares, at sampled cycles, the
// valid bit of every frame of every L1D, L1T and L2 with what the record
// says about a flip at that cycle. The samples are the first and last cycle
// of every launch — where an invalidation lands on either side of the
// launch boundary — 16 cycles across every launch, and both sides of a
// spread of the record's own edges: the cycle a frame is filled in, which
// must still find it invalid, and the next, which must find it valid. BFS
// has host steps that write (invalidating every cache) and host steps that
// do not; K-Means is the one app whose kernels read through L1T.
func TestFrameRecordOracle(t *testing.T) {
	cfg := gpu.Volta()
	for _, pj := range parityJobs(t) {
		t.Run(pj.name, func(t *testing.T) {
			si, err := microfi.TraceStatic(pj.build(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			fr := si.Frames
			targets := frameSamples(t, pj.build, si)
			var next, checks, valid int
			res := sim.Run(pj.build(), cfg, sim.Options{AtCycle: 1, EachCycle: func(m *sim.Machine) {
				c := sim.CycleOf(m)
				if next == len(targets) || c < targets[next] {
					return
				}
				for next < len(targets) && targets[next] <= c {
					next++
				}
				checks++
				check := func(name string, sm int, cache *mem.Cache, log *mem.FrameLog) {
					if log.NumFrames() != cache.NumLines() {
						t.Fatalf("%s%d: %d frames recorded, %d lines", name, sm, log.NumFrames(), cache.NumLines())
					}
					for i := 0; i < cache.NumLines(); i++ {
						got := cache.LineAt(i).Valid
						if want := log.Valid(i, c); got != want {
							t.Fatalf("%s%d frame %d cycle %d: machine valid=%v, record valid=%v", name, sm, i, c, got, want)
						}
						if got {
							valid++
						}
					}
				}
				for sm, s := range m.SMs {
					check("L1D", sm, s.L1D, fr.L1D[sm])
					check("L1T", sm, s.L1T, fr.L1T[sm])
				}
				check("L2", 0, m.L2, fr.L2)
			}})
			if res.Err != nil || res.TimedOut || res.Cycles != si.Cycles {
				t.Fatalf("hooked run: err=%v timeout=%v, %d cycles, traced %d", res.Err, res.TimedOut, res.Cycles, si.Cycles)
			}
			if checks < len(si.Spans) || valid == 0 {
				t.Fatalf("degenerate check: %d sampled cycles for %d launches, %d valid frames seen", checks, len(si.Spans), valid)
			}
		})
	}
}

// frameSamples returns the ascending cycles TestFrameRecordOracle samples.
// The fill cycles come from a first hooked run, which notes every stepped
// cycle in which some cache counted a miss.
func frameSamples(t *testing.T, build func() *device.Job, si *microfi.StaticIntervals) []int64 {
	var cs []int64
	for _, sp := range si.Spans {
		for s := int64(0); s <= 16; s++ {
			cs = append(cs, sp.Start+1+(sp.End-sp.Start-1)*s/16)
		}
	}
	var fills []int64
	var prev, misses int64
	sim.Run(build(), gpu.Volta(), sim.Options{AtCycle: 1, EachCycle: func(m *sim.Machine) {
		n := m.L2.Stats.Misses
		for _, s := range m.SMs {
			n += s.L1D.Stats.Misses + s.L1T.Stats.Misses
		}
		if n != misses {
			fills = append(fills, prev)
		}
		prev, misses = sim.CycleOf(m), n
	}})
	if len(fills) == 0 {
		t.Fatal("no cache filled")
	}
	for k := 0; k < 128; k++ {
		f := fills[k*len(fills)/128]
		cs = append(cs, f, f+1)
	}
	slices.Sort(cs)
	return slices.Compact(cs)
}
