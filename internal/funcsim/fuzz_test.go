package funcsim

import (
	"bytes"
	"testing"

	"gpurel/internal/fuzzprog"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/sim"
)

// FuzzFuncsimParity feeds generated (structurally valid) programs — the
// generator FuzzUOpParity drives the cycle simulator's two cores with —
// through the µop executor and the reference executor: a recording run must
// agree field for field, and so must one destination and one use injection
// whose sites come from the fuzz bytes. It then lets the third engine answer
// too: where the cycle simulator and the functional one both complete, their
// outputs are equal. Between them the three statements of the ISA (sim's µop
// core, funcsim, exec.Step) check each other on programs nobody hand-picked.
func FuzzFuncsimParity(f *testing.F) {
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
		job := fuzzprog.Job(prog)
		g, ref := onBoth(func() *Result { return Run(job, Options{Record: true}) })
		if g.Err == nil {
			sameRecord(t, "recording run", g, ref)
		} else {
			sameOutcome(t, "faulting run", g, ref) // counters of a faulted run are outside the contract
		}

		// The sites: the last bytes of the stream, so mutations that move a
		// site leave the program alone. The reference's counters number them
		// (on a run that completed the two agree).
		tail := func(i int) int64 {
			if i < len(data) {
				return int64(data[len(data)-1-i])
			}
			return 0
		}
		pick := tail(0)<<16 | tail(1)<<8 | tail(2)
		for _, mode := range []InjectMode{InjectDst, InjectUse} {
			total := candidates(mode, ref.DstCands, ref.LoadCands, ref.UseCands)
			if total == 0 {
				continue
			}
			inj := Injection{Mode: mode, Index: pick % total, Bit: uint8(tail(3) % 32)}
			opts := Options{Inject: &inj, MaxDynInstrs: 10*ref.DynInstrs + 1000}
			got, want := onBoth(func() *Result { return Run(job, opts) })
			sameOutcome(t, "injected run", got, want)
			if mode == InjectUse {
				sameTrace(t, "use-injected", job, opts) // events see the flipped read
			}
		}
		sameTrace(t, "fuzz", job, Options{})

		// The cycle simulator orders warps and CTAs differently (round-robin
		// issue over SMs against one warp after another), so a generated
		// program, which follows no synchronisation discipline, has one
		// answer only on a single warp; and its texture cache is not kept
		// coherent with stores, as on hardware, which the functional
		// executor does not model.
		if storesAndTextureLoads(prog) {
			return
		}
		one := fuzzprog.Job(prog)
		one.Steps[0].Launch.GridX, one.Steps[0].Launch.BlockX = 1, 32
		fr := Run(one, Options{})
		sr := sim.Run(one, gpu.Volta(), sim.Options{MaxCycles: 20000})
		if fr.Err == nil && !fr.TimedOut && sr.Err == nil && !sr.TimedOut && !bytes.Equal(fr.Output, sr.Output) {
			t.Fatal("the functional and the cycle-level simulator complete with different outputs")
		}
	})
}

func storesAndTextureLoads(p *isa.Program) bool {
	var stg, ldt bool
	for i := range p.Code {
		stg = stg || p.Code[i].Op == isa.OpSTG
		ldt = ldt || p.Code[i].Op == isa.OpLDT
	}
	return stg && ldt
}
