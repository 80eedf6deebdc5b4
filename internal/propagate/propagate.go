// Package propagate implements dynamic error-propagation analysis — the
// future-work direction the paper's §VI singles out ("software-level fault
// injection may still have its value, for example, conducting fast error
// propagation analysis across instructions"), in the style of LLFI-GPU [9]
// and Trident [59].
//
// A fault is seeded at one dynamic instruction's destination register
// (exactly a softfi injection site) and tracked as taint through one
// fault-free functional run: a funcsim.Run whose tracer keeps a shadow bit
// per register, predicate, shared-memory word and global word. A value is
// tainted when any source register, guard, SETP combine or SEL select
// predicate, load address or loaded word that produced it was tainted. The
// analysis reports how far the corruption spreads — dynamic instructions
// touched, threads infected, global memory bytes dirtied — and whether it
// reaches the program output, which predicts the SDC outcome of the
// equivalent real injection without comparing outputs.
//
// Like Trident, the tracker follows explicit data flow plus predicates. It
// does not follow implicit flow through branches: a tainted branch condition
// taints nothing the path it picks then writes, so a fault that only changes
// control flow is missed. Host steps are not traced either: global taint
// crosses them untouched, and what a host step writes is never tainted, so a
// fault that reaches the output only through a host step's result is missed
// too. Both make the SDC prediction unsound (it misses SDCs), besides the
// false alarms logical masking causes.
package propagate

import (
	"fmt"

	"gpurel/internal/device"
	"gpurel/internal/funcsim"
)

// Seed selects the fault site: the idx-th dynamic destination-register
// write of the job (the same candidate space softfi.SVF samples).
type Seed struct {
	Index int64
}

// Result summarises one propagation analysis.
type Result struct {
	// Seeded reports whether the seed index was reached.
	Seeded bool
	// TaintedInstrs counts dynamic instructions that consumed tainted input.
	TaintedInstrs int64
	// TaintedThreads counts threads (across all CTAs) that ever held taint.
	TaintedThreads int
	// TaintedGlobalBytes counts global-memory bytes tainted at exit.
	TaintedGlobalBytes int
	// OutputTainted reports whether taint reached any output buffer byte —
	// the propagation-based SDC prediction.
	OutputTainted bool
	// PredictedOutcome is "SDC" when OutputTainted, else "Masked". (The
	// analysis cannot predict DUEs/Timeouts: it does not corrupt values,
	// only tracks reachability.)
	PredictedOutcome string
	// DynInstrs is the total dynamic instruction count of the run.
	DynInstrs int64
}

// Analyze runs the job once with taint tracking from the given seed.
func Analyze(job *device.Job, seed Seed) (*Result, error) {
	t := &tracker{res: &Result{PredictedOutcome: "Masked"}, global: map[uint32]bool{}, seed: seed.Index}
	run := funcsim.Run(job, funcsim.Options{Trace: t})
	if run.Err != nil {
		return nil, fmt.Errorf("propagate: %w", run.Err)
	}
	if run.TimedOut {
		return nil, fmt.Errorf("propagate: schedule budget exceeded")
	}
	for _, o := range job.Outputs {
		for a := o.Addr; a < o.Addr+o.Size; a += 4 {
			if t.global[a] {
				t.res.OutputTainted = true
				t.res.PredictedOutcome = "SDC"
			}
		}
	}
	t.res.TaintedGlobalBytes = 4 * len(t.global)
	t.res.DynInstrs = run.DynInstrs
	return t.res, nil
}

// tracker is the funcsim.Tracer holding the taint shadows: one bit per
// register slot, predicate and shared-memory word of the CTA in flight, and
// the set of tainted global words.
type tracker struct {
	res     *Result
	regs    []bool
	preds   []uint8 // per thread, one bit per predicate as in funcsim
	smem    []bool  // per word
	threads []bool  // threads of the CTA that ever held taint
	global  map[uint32]bool

	// lane is the taint of everything the current lane has read so far.
	lane bool
	// writes counts destination-register writes, in softfi's order.
	writes, seed int64
}

func (t *tracker) OnCTAStart(l *device.Launch, _ int64) {
	n := l.ThreadsPerCTA()
	t.regs = make([]bool, n*l.Kernel.NumRegs)
	t.preds = make([]uint8, n)
	t.smem = make([]bool, (l.SmemBytes+3)/4)
	t.threads = make([]bool, n)
}

func (t *tracker) OnCTAEnd(int64) {}

func (t *tracker) On(ev funcsim.Event) {
	switch ev.Kind {
	case funcsim.EvLane:
		t.lane = false
	case funcsim.EvRead:
		t.lane = t.lane || t.regs[ev.Index]
	case funcsim.EvPredRead:
		t.lane = t.lane || t.preds[ev.Thread]&uint8(ev.Index) != 0
	case funcsim.EvLoad:
		t.lane = t.lane || t.global[ev.Index&^3]
	case funcsim.EvLoadShared:
		if w, ok := t.word(ev.Index); ok {
			t.lane = t.lane || t.smem[w]
		}
	case funcsim.EvWrite:
		tainted := t.lane
		if t.writes == t.seed {
			tainted = true
			t.res.Seeded = true
		}
		t.writes++
		t.regs[ev.Index] = tainted
		if tainted {
			t.res.TaintedInstrs++
			t.mark(ev.Thread)
		}
	case funcsim.EvPredWrite:
		if t.lane {
			t.preds[ev.Thread] |= uint8(ev.Index)
			t.mark(ev.Thread)
		} else {
			t.preds[ev.Thread] &^= uint8(ev.Index)
		}
	case funcsim.EvStore:
		if t.lane {
			t.global[ev.Index&^3] = true
			t.mark(ev.Thread)
		} else {
			delete(t.global, ev.Index&^3)
		}
	case funcsim.EvStoreShared:
		if w, ok := t.word(ev.Index); ok {
			t.smem[w] = t.lane
			if t.lane {
				t.mark(ev.Thread)
			}
		}
	}
}

// word returns the shared-memory word at addr; an access that is misaligned
// or out of bounds has none (the run faults on it).
func (t *tracker) word(addr uint32) (uint32, bool) {
	return addr / 4, addr%4 == 0 && int(addr/4) < len(t.smem)
}

func (t *tracker) mark(thread int) {
	if !t.threads[thread] {
		t.threads[thread] = true
		t.res.TaintedThreads++
	}
}
