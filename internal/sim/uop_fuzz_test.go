package sim

import (
	"bytes"
	"testing"

	"gpurel/internal/fuzzprog"
	"gpurel/internal/gpu"
)

// FuzzUOpParity feeds randomly generated (but structurally valid) programs
// through both execution cores: the pre-decoded µop interpreter and the
// reference core of reference_test.go must agree on the complete
// Result — outputs, cycle count, fault status, timeout — for any program
// the ISA admits, including ones that fault on wild addresses, deadlock a
// divergent barrier into the timeout, or drop every write into RZ.
func FuzzUOpParity(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 7, 11, 250, 128, 42, 9, 0, 200, 17, 66, 1, 2, 3, 4, 5})
	f.Add(bytes.Repeat([]byte{0xA5, 0x17, 0xC3, 0x08}, 16))
	f.Add([]byte("divergent branches and barriers"))
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
	})
}
