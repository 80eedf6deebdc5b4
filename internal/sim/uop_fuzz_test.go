package sim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"gpurel/internal/fuzzprog"
	"gpurel/internal/gpu"
)

// FuzzUOpParity feeds randomly generated (but structurally valid) programs
// through both execution cores: the pre-decoded µop interpreter and the
// reference core of reference_test.go must agree on the complete
// Result — outputs, cycle count, fault status, timeout — for any program
// the ISA admits, including ones that fault on wild addresses or drop every
// write into RZ. A random stream never splits a warp (none of 20 000 did),
// whatever its seed is named: divergent branches, a partial EXIT and the
// barrier after it come only from the fuzzprog.GuardedExit seed and its
// mutations. Each
// input then runs once more under a persistent fault drawn from its bytes —
// an injection cycle anywhere in the run and one allocated register bit
// forced by OnCycle and EachCycle — so generated programs also put the hook
// inside the idle spans the µop core jumps over and the oracle walks.
func FuzzUOpParity(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 7, 11, 250, 128, 42, 9, 0, 200, 17, 66, 1, 2, 3, 4, 5})
	f.Add(bytes.Repeat([]byte{0xA5, 0x17, 0xC3, 0x08}, 16))
	f.Add([]byte("divergent branches and barriers"))
	f.Add(fuzzprog.GuardedExit)
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := fuzzprog.Program(data)
		if err := prog.Validate(); err != nil {
			t.Fatalf("generator emitted an invalid program: %v", err)
		}
		fast := Run(fuzzprog.Job(prog), gpu.Volta(), Options{MaxCycles: 20000})
		var slow *Result
		onReference(func() { slow = Run(fuzzprog.Job(prog), gpu.Volta(), Options{MaxCycles: 20000}) })
		if (fast.Err == nil) != (slow.Err == nil) {
			t.Fatalf("fault status diverges: µop err=%v, reference err=%v", fast.Err, slow.Err)
		}
		if fast.TimedOut != slow.TimedOut || fast.DUEFlag != slow.DUEFlag {
			t.Fatalf("status diverges: µop timeout=%v due=%v, reference timeout=%v due=%v",
				fast.TimedOut, fast.DUEFlag, slow.TimedOut, slow.DUEFlag)
		}
		if fast.Cycles != slow.Cycles {
			t.Fatalf("cycles diverge: µop %d, reference %d", fast.Cycles, slow.Cycles)
		}
		if !bytes.Equal(fast.Output, slow.Output) {
			t.Fatal("outputs diverge")
		}

		h := fnv.New64a()
		h.Write(data)
		draw := h.Sum64()
		opts := Options{MaxCycles: 20000, AtCycle: 1 + int64(draw%uint64(max(fast.Cycles, 64)))}
		force := func(m *Machine) {
			for _, sm := range m.SMs {
				if blocks := sm.AllocatedRF(); len(blocks) > 0 {
					cell := &sm.RF[blocks[0].Base+int(draw>>16)%blocks[0].Size]
					if bit := uint32(1) << (draw >> 8 % 32); draw>>13&1 == 1 {
						*cell |= bit
					} else {
						*cell &^= bit
					}
					return
				}
			}
		}
		opts.OnCycle, opts.EachCycle = force, force
		fast = Run(fuzzprog.Job(prog), gpu.Volta(), opts)
		onReference(func() { slow = Run(fuzzprog.Job(prog), gpu.Volta(), opts) })
		if fmt.Sprint(fast.Err) != fmt.Sprint(slow.Err) {
			t.Fatalf("stuck bit from cycle %d: µop err=%v, reference err=%v", opts.AtCycle, fast.Err, slow.Err)
		}
		resultsEqual(t, "stuck bit", fast, slow)
	})
}
