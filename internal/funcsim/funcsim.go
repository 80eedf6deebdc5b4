// Package funcsim is the software-level executor: it runs a device.Job with
// pure functional semantics — no caches, no timing, registers as plain
// per-thread state. It is the substrate of the NVBitFI-analogue injector
// (internal/softfi): dynamic instructions are counted per thread, and a
// configurable injection flips one bit of a destination-register value (or,
// in the operand-transient ablation mode, the value seen by one source read).
//
// It executes the same compiled µops as the cycle-level simulator
// (internal/uop) and shares with it the control half of every step —
// SIMT stack, guard, BRA / EXIT / BAR, uop.(*Program).Issue — and the
// handlers of every kind that reaches nothing outside its frame (registers,
// predicates, S2R, LDC), so an instruction's semantics is written once for
// both. What stays its own is memory, a flat device.Memory here (no
// hierarchy, no coalescing, no latency), the order of work — CTAs run one
// after another and warps run to their next barrier (no scheduler, no
// cycles) — and the injector's bookkeeping (cta.go). What the injector
// counts and corrupts is arithmetic on the µop, not a test per register
// access. The independent statement of the ISA both are checked
// against, exec.Step, runs from test binaries only (reference_test.go).
//
// The speed gap between this executor and the cycle-level simulator is the
// very speed gap the paper attributes to software-level methods (§I fn. 1).
package funcsim

import (
	"bytes"
	"fmt"

	"gpurel/internal/device"
)

// InjectMode selects what the injection corrupts.
type InjectMode uint8

// Injection modes.
const (
	// InjectDst flips a bit of a destination register value right after the
	// chosen dynamic instruction writes it — NVBitFI's model.
	InjectDst InjectMode = iota
	// InjectDstLoad is InjectDst restricted to load instructions (SVF-LD).
	InjectDstLoad
	// InjectUse flips a bit of the value read by one dynamic source-operand
	// use without changing stored state — the "instantaneous" model whose
	// blind spot §V-B describes.
	InjectUse
)

// Injection selects one dynamic injection site. Index counts candidate
// events (destination writes for InjectDst/InjectDstLoad, source reads for
// InjectUse) from 0 across the whole job.
type Injection struct {
	Mode  InjectMode
	Index int64
	Bit   uint8
}

// Window is a half-open interval of candidate indices belonging to one
// kernel, used to target injections at a specific kernel.
type Window struct{ Start, End int64 }

// Len returns the window length.
func (w Window) Len() int64 { return w.End - w.Start }

// KernelCounts aggregates per-kernel dynamic statistics of a golden run.
type KernelCounts struct {
	DynInstrs   int64 // thread-instructions executed (SVF app weighting)
	DstWindows  []Window
	LoadWindows []Window
	UseWindows  []Window
}

// Result reports one functional run.
//
// DynInstrs and the three candidate counters count whole warp-instructions:
// a run that completes, times out or joins has counted every lane of every
// instruction it retired, in every mode. A run that ends in Err stopped with
// a lane faulting inside an instruction; its DynInstrs excludes that
// instruction, and its candidate counters are not part of the contract
// (softfi.Classify returns DUE before reading them).
type Result struct {
	Err       error // non-nil = DUE
	TimedOut  bool
	Output    []byte
	DynInstrs int64
	DstCands  int64
	LoadCands int64
	UseCands  int64
	// PerKernel counts what this run executed: a resumed run starts them at
	// its resume boundary, a joined run stops them at the join.
	PerKernel map[string]*KernelCounts
	DUEFlag   bool // application-signalled DUE (TMR voter disagreement)

	// Checkpoints is the boundary log of a run made with Options.Record.
	Checkpoints *Checkpoints
	// Joined reports that a resumed injection run met the recorded run's
	// state at a later boundary and took its suffix from the record:
	// Output and DUEFlag are the recorded run's, DynInstrs is extended by
	// the JoinSkipped thread-instructions the recorded suffix executed.
	Joined      bool
	JoinSkipped int64
	// Skips counts the CTAs after the fault that a resumed injection run took
	// from the record instead of executing, because none of their recorded
	// loads reads a word where its memory differs from the record's;
	// SkipInstrs is the thread-instructions they hold. ReadRefusals counts
	// the CTAs it executed because one of those loads does.
	Skips, ReadRefusals int
	SkipInstrs          int64
}

// Tracer observes a run access by access: the register liveness of PVF
// analysis (Sridharan & Kaeli's Program Vulnerability Factor, the paper's
// §VII) and the taint shadows of error-propagation analysis
// (internal/propagate). CTAs execute one after another, so every event
// refers to the most recently started CTA. The at arguments are the
// dynamic-instruction counter.
type Tracer interface {
	OnCTAStart(l *device.Launch, at int64)
	On(ev Event)
	OnCTAEnd(at int64)
}

// EventKind says what an Event reports.
type EventKind uint8

// Event kinds. A data instruction reports, for each lane that executes it in
// lane order, EvLane, then the lane's reads in exec.Step's order — its guard,
// a SEL's select predicate, its source registers, a SETP's combine predicate,
// a memory access's address — then its register or predicate write. A lane
// that faults has reported everything before its write; later lanes report
// nothing.
const (
	EvLane        EventKind = iota // a lane of a data instruction begins
	EvRead                         // a source-register read
	EvWrite                        // a destination-register write
	EvPredRead                     // a predicate read: guard, SETP combine or SEL select
	EvPredWrite                    // a SETP destination write
	EvLoad                         // a global (or texture) load
	EvStore                        // a global store
	EvLoadShared                   // a shared-memory load
	EvStoreShared                  // a shared-memory store
)

// Event is one access of a traced run.
type Event struct {
	Kind   EventKind
	Thread int // the lane's thread within its CTA
	// Index is the register slot (Thread × the kernel's NumRegs + register)
	// of EvRead and EvWrite, the predicate's bit in the thread's predicate
	// byte (1 << (p-1)) of EvPredRead and EvPredWrite, and the byte address
	// of the memory kinds.
	Index uint32
	At    int64 // thread-instructions retired before this instruction
}

// Options configures a run.
type Options struct {
	// MaxDynInstrs is the timeout budget in thread-instructions (0 = none).
	MaxDynInstrs int64
	Inject       *Injection
	// CollectWindows enables per-kernel window recording (golden runs).
	CollectWindows bool
	// Trace, when set, receives every register, predicate and memory access.
	Trace Tracer
	// Record logs a checkpoint at every CTA start and host step into
	// Result.Checkpoints; it implies CollectWindows, because fork points are
	// looked up by candidate counter.
	Record bool
	// Resume starts the run at boundary ResumeAt of a log recorded on the
	// same job instead of at the beginning. With Inject set the run also
	// joins: once the fault has fired, every later boundary is compared with
	// the record and the first match ends the run (Result.Joined). Until
	// then, a CTA that reads none of the words where memory differs from the
	// record is taken from the record (Result.Skips).
	Resume   *Checkpoints
	ResumeAt int
}

// position is the executor's place in the schedule between two CTAs.
type position struct {
	si    int // schedule step
	steps int // steps entered so far, counted against the schedule budget
	cta   int // next CTA of the launch at si, replicas outermost, then y, x
}

// Run executes the job functionally. The job's memory image is cloned (up to
// its allocation high-water mark), so a Job can be reused across runs.
//
// CTAs run one after another, so between two of them the whole executor
// state is the schedule position, the counters in Result and device memory:
// registers, predicates, shared memory and warps are cleared at the start of
// every runCTA. Record, Resume, the join and the skip all rest on that.
func Run(job *device.Job, opts Options) *Result {
	if opts.Record {
		opts.CollectWindows = true
	}
	res := &Result{PerKernel: map[string]*KernelCounts{}}
	r := &runner{opts: opts, res: res}
	r.setInjection(opts.Inject)
	var pos position
	if cps := opts.Resume; cps != nil {
		pos = r.resume(job, cps, opts.ResumeAt)
	} else {
		r.mem = job.Mem.CloneFootprint(nil)
	}
	if opts.Record {
		res.Checkpoints = &Checkpoints{}
		r.foot = &footprint{}
		r.shadow = bytes.Clone(r.mem.PeekBytes(0, uint32(r.mem.Size())))
		r.mem.ClearPageDirty()
	}

	maxSteps := job.MaxScheduleSteps()
	for ord := opts.ResumeAt; pos.si < len(job.Steps); ord++ {
		skip := false // the CTA at this boundary, if the step is one, comes from the record
		switch {
		case opts.Record:
			r.record(pos)
		case r.shadow != nil && ord > opts.ResumeAt:
			var joined bool
			if joined, skip = r.probe(ord, pos); joined {
				return res
			}
		}
		st := &job.Steps[pos.si]
		if pos.cta == 0 {
			if pos.steps >= maxSteps {
				res.TimedOut = true
				return res
			}
			pos.steps++
		}
		if st.Host != nil {
			if next := st.Host(r.mem, 0); next >= 0 {
				pos.si = next
			} else {
				pos.si++
			}
			continue
		}
		l := st.Launch
		if pos.cta == 0 {
			if l.ThreadsPerCTA() == 0 || l.Kernel == nil {
				res.Err = fmt.Errorf("launch %s: empty configuration", l.Name())
				return res
			}
			r.winStart = [3]int64{res.DstCands, res.LoadCands, res.UseCands}
		}
		if pos.cta < l.NumCTAs() {
			if skip {
				r.skip(ord, l)
			} else if err := r.runCTA(l, pos.cta); err != nil {
				if err == errTimeout {
					res.TimedOut = true
				} else {
					res.Err = err
				}
				return res
			}
			pos.cta++
		}
		if pos.cta >= l.NumCTAs() {
			if opts.CollectWindows {
				kc := r.kernelCounts(l.Name())
				kc.DstWindows = append(kc.DstWindows, Window{r.winStart[0], res.DstCands})
				kc.LoadWindows = append(kc.LoadWindows, Window{r.winStart[1], res.LoadCands})
				kc.UseWindows = append(kc.UseWindows, Window{r.winStart[2], res.UseCands})
			}
			pos.si++
			pos.cta = 0
		}
	}
	res.Output = job.ReadOutputs(r.mem)
	if job.DUEFlag != 0 && r.mem.PeekU32(job.DUEFlag) != 0 {
		res.DUEFlag = true
	}
	if opts.Record {
		res.Checkpoints.closeFootprint(r.foot)
		res.Checkpoints.end = res
	}
	return res
}

var errTimeout = fmt.Errorf("dynamic instruction budget exceeded")

type runner struct {
	mem  *device.Memory
	opts Options
	res  *Result
	// winStart holds the candidate counters at the entry of the current
	// launch (or at the resume boundary inside it).
	winStart [3]int64
	// shadow is the recorded run's memory at the current boundary: what a
	// recording run diffs against, and what a resumed injection run compares
	// with to join. nil when neither applies (or the schedule diverged).
	shadow []byte
	// foot collects the current CTA's loads and stores in a recording run.
	foot *footprint
	// A resumed injection run keeps diff, the sorted addresses of the words
	// where its memory differs from the shadow, exact at every probed
	// boundary; skipped says the last step came from the record, which
	// brought shadow and diff up to date itself. saved is scratch.
	diff    []uint32
	skipped bool
	saved   []uint32

	// The injection site as the value its mode's candidate counter has when
	// the fault fires; the other two (all three without Options.Inject) hold
	// -1, which no counter reaches, so every µop tests its counters against
	// their sites without asking for the mode. flip is the bit to XOR.
	siteDst, siteLoad, siteUse int64
	flip                       uint32

	cta ctaState
}

// setInjection resolves Options.Inject into the three sites.
func (r *runner) setInjection(inj *Injection) {
	r.siteDst, r.siteLoad, r.siteUse = -1, -1, -1
	if inj == nil {
		return
	}
	r.flip = 1 << (inj.Bit & 31)
	switch inj.Mode {
	case InjectDst:
		r.siteDst = inj.Index
	case InjectDstLoad:
		r.siteLoad = inj.Index
	case InjectUse:
		r.siteUse = inj.Index
	}
}

func (r *runner) kernelCounts(name string) *KernelCounts {
	kc := r.res.PerKernel[name]
	if kc == nil {
		kc = &KernelCounts{}
		r.res.PerKernel[name] = kc
	}
	return kc
}
