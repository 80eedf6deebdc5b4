// Package funcsim is the software-level executor: it runs a device.Job with
// pure functional semantics — no caches, no timing, registers as plain
// per-thread state. It is the substrate of the NVBitFI-analogue injector
// (internal/softfi): dynamic instructions are counted per thread, and a
// configurable injection flips one bit of a destination-register value (or,
// in the operand-transient ablation mode, the value seen by one source read).
//
// The speed gap between this executor and the cycle-level simulator is the
// very speed gap the paper attributes to software-level methods (§I fn. 1).
package funcsim

import (
	"bytes"
	"fmt"
	"math/bits"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/isa"
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
}

// RegTracer observes architectural register liveness for PVF analysis
// (Sridharan & Kaeli's Program Vulnerability Factor, the paper's §VII).
// CTAs execute sequentially in the functional simulator, so callbacks always
// refer to the most recently started CTA; slot = thread*numRegs + reg.
// The `at` argument is the global dynamic-instruction counter.
type RegTracer interface {
	OnCTAStart(threads, numRegs int, at int64)
	OnRegWrite(slot int, at int64)
	OnRegRead(slot int, at int64)
	OnCTAEnd(at int64)
}

// Options configures a run.
type Options struct {
	// MaxDynInstrs is the timeout budget in thread-instructions (0 = none).
	MaxDynInstrs int64
	Inject       *Injection
	// CollectWindows enables per-kernel window recording (golden runs).
	CollectWindows bool
	// RegTrace, when set, receives architectural register liveness events.
	RegTrace RegTracer
	// Record logs a checkpoint at every CTA start and host step into
	// Result.Checkpoints; it implies CollectWindows, because fork points are
	// looked up by candidate counter.
	Record bool
	// Resume starts the run at boundary ResumeAt of a log recorded on the
	// same job instead of at the beginning. With Inject set the run also
	// joins: once the fault has fired, every later boundary is compared with
	// the record and the first match ends the run (Result.Joined).
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
// registers, predicates, shared memory and warps live and die inside runCTA.
// Record, Resume and the join all rest on that.
func Run(job *device.Job, opts Options) *Result {
	if opts.Record {
		opts.CollectWindows = true
	}
	res := &Result{PerKernel: map[string]*KernelCounts{}}
	r := &runner{opts: opts, res: res}
	var pos position
	if cps := opts.Resume; cps != nil {
		pos = r.resume(job, cps, opts.ResumeAt)
	} else {
		r.mem = job.Mem.CloneUsed()
	}
	if opts.Record {
		res.Checkpoints = &Checkpoints{}
		r.shadow = bytes.Clone(r.mem.PeekBytes(0, r.mem.Used()))
		r.mem.ClearPageDirty()
	}

	maxSteps := job.MaxScheduleSteps()
	for ord := opts.ResumeAt; pos.si < len(job.Steps); ord++ {
		switch {
		case opts.Record:
			r.record(pos)
		case r.shadow != nil && ord > opts.ResumeAt:
			if r.join(ord, pos) {
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
			if err := r.runCTA(l, pos.cta); err != nil {
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
}

func (r *runner) kernelCounts(name string) *KernelCounts {
	kc := r.res.PerKernel[name]
	if kc == nil {
		kc = &KernelCounts{}
		r.res.PerKernel[name] = kc
	}
	return kc
}

// ctaEnv is the exec.Env of one CTA during functional execution.
type ctaEnv struct {
	r       *runner
	params  []uint32
	regs    []uint32 // threads × NumRegs
	preds   []uint8  // threads × 1 bitfield of 7 predicates
	numRegs int
	smem    []byte

	blockX, blockY int
	ctaX, ctaY     int
	gridX, gridY   int
	warpBase       int // thread index of lane 0 of the current warp
	curInstr       *isa.Instr
}

func (e *ctaEnv) thread(lane int) int { return e.warpBase + lane }

func (e *ctaEnv) ReadReg(lane int, reg isa.Reg) uint32 {
	slot := e.thread(lane)*e.numRegs + int(reg)
	if tr := e.r.opts.RegTrace; tr != nil {
		tr.OnRegRead(slot, e.r.res.DynInstrs)
	}
	v := e.regs[slot]
	if inj := e.r.opts.Inject; inj != nil && inj.Mode == InjectUse {
		if e.r.res.UseCands == inj.Index {
			v ^= 1 << (inj.Bit & 31)
		}
		e.r.res.UseCands++
	} else if e.r.opts.CollectWindows {
		e.r.res.UseCands++
	}
	return v
}

func (e *ctaEnv) WriteReg(lane int, reg isa.Reg, v uint32) {
	inj := e.r.opts.Inject
	if inj != nil {
		switch inj.Mode {
		case InjectDst:
			if e.r.res.DstCands == inj.Index {
				v ^= 1 << (inj.Bit & 31)
			}
		case InjectDstLoad:
			if e.curInstr != nil && e.curInstr.IsLoad() && e.r.res.LoadCands == inj.Index {
				v ^= 1 << (inj.Bit & 31)
			}
		}
	}
	e.r.res.DstCands++
	if e.curInstr != nil && e.curInstr.IsLoad() {
		e.r.res.LoadCands++
	}
	slot := e.thread(lane)*e.numRegs + int(reg)
	if tr := e.r.opts.RegTrace; tr != nil {
		tr.OnRegWrite(slot, e.r.res.DynInstrs)
	}
	e.regs[slot] = v
}

func (e *ctaEnv) ReadPred(lane int, p isa.Pred) bool {
	return e.preds[e.thread(lane)]&(1<<(p-1)) != 0
}

func (e *ctaEnv) WritePred(lane int, p isa.Pred, v bool) {
	if v {
		e.preds[e.thread(lane)] |= 1 << (p - 1)
	} else {
		e.preds[e.thread(lane)] &^= 1 << (p - 1)
	}
}

func (e *ctaEnv) Special(lane int, s isa.SReg) uint32 {
	t := e.thread(lane)
	switch s {
	case isa.SRTidX:
		return uint32(t % e.blockX)
	case isa.SRTidY:
		return uint32(t / e.blockX)
	case isa.SRCtaIDX:
		return uint32(e.ctaX)
	case isa.SRCtaIDY:
		return uint32(e.ctaY)
	case isa.SRNTidX:
		return uint32(e.blockX)
	case isa.SRNTidY:
		return uint32(e.blockY)
	case isa.SRNCtaX:
		return uint32(e.gridX)
	case isa.SRNCtaY:
		return uint32(e.gridY)
	case isa.SRLaneID:
		return uint32(lane)
	}
	return 0
}

func (e *ctaEnv) Param(idx int) uint32 {
	if idx < 0 || idx >= len(e.params) {
		return 0
	}
	return e.params[idx]
}

func (e *ctaEnv) LoadGlobal(lane int, addr uint32, tex bool) (uint32, error) {
	return e.r.mem.Load4(addr)
}

func (e *ctaEnv) StoreGlobal(lane int, addr uint32, v uint32) error {
	return e.r.mem.Store4(addr, v)
}

func (e *ctaEnv) LoadShared(lane int, addr uint32) (uint32, error) {
	if addr%4 != 0 || int(addr)+4 > len(e.smem) {
		return 0, fmt.Errorf("illegal shared memory read at 0x%x", addr)
	}
	return le32(e.smem[addr:]), nil
}

func (e *ctaEnv) StoreShared(lane int, addr uint32, v uint32) error {
	if addr%4 != 0 || int(addr)+4 > len(e.smem) {
		return fmt.Errorf("illegal shared memory write at 0x%x", addr)
	}
	putLE32(e.smem[addr:], v)
	return nil
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// runCTA executes CTA number cta of the launch (replicas outermost, then
// grid y, then grid x), its warps stepped round-robin to honour barriers.
func (r *runner) runCTA(l *device.Launch, cta int) error {
	prog := l.Kernel
	perGrid := l.GridX * l.GridY
	params := l.ParamsFor(cta / perGrid)
	cy, cx := cta%perGrid/l.GridX, cta%l.GridX
	threads := l.ThreadsPerCTA()
	if tr := r.opts.RegTrace; tr != nil {
		tr.OnCTAStart(threads, prog.NumRegs, r.res.DynInstrs)
		defer func() { tr.OnCTAEnd(r.res.DynInstrs) }()
	}
	env := &ctaEnv{
		r:       r,
		params:  params,
		regs:    make([]uint32, threads*prog.NumRegs),
		preds:   make([]uint8, threads),
		numRegs: prog.NumRegs,
		smem:    make([]byte, l.SmemBytes),
		blockX:  l.BlockX, blockY: l.BlockY,
		ctaX: cx, ctaY: cy,
		gridX: l.GridX, gridY: l.GridY,
	}
	nWarps := (threads + 31) / 32
	warps := make([]*exec.Warp, nWarps)
	atBar := make([]bool, nWarps)
	done := make([]bool, nWarps)
	for w := range warps {
		lanes := threads - w*32
		if lanes > 32 {
			lanes = 32
		}
		warps[w] = exec.NewWarp(lanes)
	}
	kc := r.kernelCounts(l.Name())

	remaining := nWarps
	for remaining > 0 {
		progress := false
		for w := 0; w < nWarps; w++ {
			if done[w] || atBar[w] {
				continue
			}
			env.warpBase = w * 32
			// Run the warp until it exits, faults, or hits a barrier.
			for {
				env.curInstr = warps[w].PeekInstr(prog)
				info := exec.Step(warps[w], prog, env)
				if info.Kind == exec.StepOK || info.Kind == exec.StepExit || info.Kind == exec.StepBarrier {
					n := int64(bits.OnesCount32(info.ActiveMask))
					r.res.DynInstrs += n
					kc.DynInstrs += n
					if r.opts.MaxDynInstrs > 0 && r.res.DynInstrs > r.opts.MaxDynInstrs {
						return errTimeout
					}
				}
				switch info.Kind {
				case exec.StepFault:
					return info.Fault
				case exec.StepExit:
					done[w] = true
					remaining--
					progress = true
				case exec.StepBarrier:
					atBar[w] = true
					progress = true
				default:
					progress = true
					continue
				}
				break
			}
		}
		// Release the barrier when every live warp has arrived.
		if remaining > 0 {
			all := true
			for w := 0; w < nWarps; w++ {
				if !done[w] && !atBar[w] {
					all = false
					break
				}
			}
			if all {
				for w := 0; w < nWarps; w++ {
					if !done[w] {
						atBar[w] = false
						warps[w].AdvancePastBarrier()
					}
				}
				progress = true
			}
		}
		if !progress {
			return fmt.Errorf("CTA (%d,%d) deadlocked", cx, cy)
		}
	}
	return nil
}
