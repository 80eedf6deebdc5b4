package sim_test

import (
	"strings"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/kasm"
	"gpurel/internal/mem"
	"gpurel/internal/microfi"
	"gpurel/internal/sim"
)

// TestFrameRecordOracle holds the cache data record that pruning reads
// (microfi.TraceStatic, on the µop core) to the reference core's cache
// oracle (sim.TraceCacheOracle), which derives every read and kill of a
// cache word from the global accesses exec.Step makes and the caches' lines
// around each one. On every parity job, for every L1D, L1T and L2, the two
// must count the same live byte-cycles, and at sampled bytes they must give
// the same answer for a flip on both sides of every cycle at which the
// oracle's answer changes — a read or a kill one cycle off shows there —
// and at two more cycles, taken in turn from 17 spread over each launch.
// Every L1 frame is sampled, and every L2 frame of one set in eight. BFS has host steps
// that write (invalidating every cache) and host steps that do not; K-Means
// is the one app whose kernels read through L1T; cacheEventsJob evicts dirty
// L2 lines and reads an L1D word after a store hit. Every record also
// passes its structural check (sim.FrameRecord.Check). Under -race the TMR
// variants are skipped.
func TestFrameRecordOracle(t *testing.T) {
	cfg := gpu.Volta()
	var checks, live int
	jobs := append(parityJobs(t), parityJob{"CacheEvents", func() *device.Job { return cacheEventsJob(cfg) }})
	for j, pj := range jobs {
		j := j
		t.Run(pj.name, func(t *testing.T) {
			if raceDetector && strings.HasSuffix(pj.name, "-TMR") {
				// The reference run costs most of the test; under -race
				// the plain apps and the selective subset cover it.
				t.Skip("TMR variants run without -race")
			}
			si, err := microfi.TraceStatic(pj.build(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			o, res := sim.TraceCacheOracle(pj.build(), cfg)
			if res.Err != nil || res.TimedOut || res.Cycles != si.Cycles {
				t.Fatalf("reference run: err=%v timeout=%v, %d cycles, traced %d", res.Err, res.TimedOut, res.Cycles, si.Cycles)
			}
			if err := si.Frames.Check(si.Cycles); err != nil {
				t.Fatalf("cache record: %v", err)
			}
			var spread []int64
			for _, sp := range si.Spans {
				for s := int64(0); s <= 16; s++ {
					spread = append(spread, sp.Start+1+(sp.End-sp.Start-1)*s/16)
				}
			}
			var total int64
			check := func(st gpu.Structure, sm int, log *mem.FrameLog) {
				n, _ := log.LiveCycles(0, si.Cycles+1)
				total += n
				if want := o.LiveByteCycles(st, sm); n != want {
					t.Errorf("%v%d: %d live byte-cycles recorded, oracle %d", st, sm, n, want)
				}
				for f := 0; f < log.NumFrames(); f++ {
					if st == gpu.L2 && f/cfg.L2Ways%8 != j%8 {
						continue
					}
					for w := 0; w < cfg.LineSize/4; w++ {
						k := f*cfg.LineSize/4 + w
						cycles := []int64{spread[k%len(spread)], spread[(k+len(spread)/2)%len(spread)]}
						for _, e := range o.Edges(st, sm, f, w) {
							cycles = append(cycles, e, e+1)
						}
						for _, c := range cycles {
							off := uint32(4*w) + uint32(c)%4
							got, want := log.Live(f, off, c), o.Live(st, sm, f, off, c)
							if got != want {
								t.Fatalf("%v%d frame %d byte %d, flip at %d: record live=%v, oracle %v", st, sm, f, off, c, got, want)
							}
							checks++
							if got {
								live++
							}
						}
					}
				}
			}
			fr := si.Frames
			for sm := range fr.L1D {
				check(gpu.L1D, sm, fr.L1D[sm])
				check(gpu.L1T, sm, fr.L1T[sm])
			}
			check(gpu.L2, 0, fr.L2)
			if total == 0 {
				t.Fatal("degenerate check: no flip into any cache is live")
			}
		})
	}
	if live == 0 || live == checks {
		t.Fatalf("degenerate check: %d of %d sampled flips live", live, checks)
	}
	t.Logf("%d of %d sampled flips live", live, checks)
}

// cacheEventsJob is a one-thread job for two cache events no application
// makes. It stores to nine lines of each of eight consecutive L2 sets, the
// lines of a set one way-size apart, so the ninth store to a set evicts a
// dirty line and writes it back. Then it loads one word through L1D, stores
// to it while the line is in L1D, and loads it again in a later cycle.
func cacheEventsJob(cfg gpu.Config) *device.Job {
	way := cfg.L2Bytes / cfg.L2Ways // lines this far apart share an L2 set
	b := kasm.New("cacheEvents")
	buf, out := b.Param(0), b.Param(1)
	i := b.MovI(0)
	b.ForI(i, 9*8, 1, func() {
		line := b.IAdd(b.IMulI(b.Shr(i, 3), int32(way)), b.IMulI(b.AndI(i, 7), int32(cfg.LineSize)))
		b.Stg(b.IAdd(buf, line), 0, i)
	})
	w := b.IAddI(buf, int32(9*way))
	v := b.Ldg(w, 0)
	b.Stg(w, 0, b.IAddI(v, 1))
	b.Stg(out, 0, b.Ldg(w, 0))
	m := device.NewMemory(1 << 20)
	bufAddr, outAddr := m.Alloc("buf", 10*way), m.Alloc("out", 4)
	return &device.Job{
		Name: "CacheEvents",
		Mem:  m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: b.MustBuild(), GridX: 1, GridY: 1, BlockX: 1, BlockY: 1,
			Params: []uint32{bufAddr, outAddr}, ParamIsPtr: []bool{true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: outAddr, Size: 4}},
	}
}
