// Package propagate implements dynamic error-propagation analysis — the
// future-work direction the paper's §VI singles out ("software-level fault
// injection may still have its value, for example, conducting fast error
// propagation analysis across instructions"), in the style of LLFI-GPU [9]
// and Trident [59].
//
// A fault is seeded at one dynamic instruction's destination register
// (exactly a softfi injection site) and tracked as taint through the
// functional execution: a value is tainted when any source operand, guard
// predicate, load address or loaded datum that produced it was tainted.
// The analysis reports how far the corruption spreads — dynamic instructions
// touched, threads infected, global memory bytes dirtied — and whether it
// reaches the program output, which predicts the SDC outcome of the
// equivalent real injection without comparing outputs.
//
// Like Trident, the tracker follows explicit data flow plus guard
// predicates; divergence-induced implicit flow (a tainted branch changing
// which path executes) is approximated by tainting the values written on
// the executed path under a tainted guard.
package propagate

import (
	"fmt"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/isa"
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
	r := &runner{
		mem:        job.Mem.CloneFootprint(nil),
		res:        &Result{PredictedOutcome: "Masked"},
		globalTnt:  map[uint32]bool{},
		seedTarget: seed.Index,
	}
	maxSteps := job.MaxScheduleSteps()
	steps := 0
	for si := 0; si < len(job.Steps); {
		if steps >= maxSteps {
			return nil, fmt.Errorf("propagate: schedule budget exceeded")
		}
		steps++
		st := &job.Steps[si]
		if st.Host != nil {
			// host steps are fault-free but move data: conservatively keep
			// global taint (hosts only reduce/copy; our apps' host steps
			// write derived scalars — taint them if any input is tainted)
			next := st.Host(r.mem, 0)
			if next >= 0 {
				si = next
			} else {
				si++
			}
			continue
		}
		if err := r.launch(st.Launch); err != nil {
			return nil, err
		}
		si++
	}
	for _, o := range job.Outputs {
		for a := o.Addr; a < o.Addr+o.Size; a += 4 {
			if r.globalTnt[a] {
				r.res.OutputTainted = true
				r.res.PredictedOutcome = "SDC"
			}
		}
	}
	r.res.TaintedGlobalBytes = 4 * len(r.globalTnt)
	r.res.DynInstrs = r.dyn
	r.res.TaintedThreads = r.taintedThreads
	return r.res, nil
}

type runner struct {
	mem        *device.Memory
	res        *Result
	globalTnt  map[uint32]bool
	writeIdx   int64
	seedTarget int64
	dyn        int64

	taintedThreads int
}

// taintEnv implements exec.Env with taint shadows alongside the data.
type taintEnv struct {
	r       *runner
	params  []uint32
	regs    []uint32
	regTnt  []bool
	preds   []uint8
	predTnt []uint8
	numRegs int
	smem    []byte
	smemTnt []bool // per word

	blockX, blockY int
	ctaX, ctaY     int
	gridX, gridY   int
	warpBase       int
	threadTainted  []bool

	// laneTnt accumulates the taint of everything the current instruction
	// has read per lane; reset by the driver before every Step.
	laneTnt [32]bool
}

func (e *taintEnv) thread(lane int) int { return e.warpBase + lane }

func (e *taintEnv) markThread(lane int) {
	t := e.thread(lane)
	if !e.threadTainted[t] {
		e.threadTainted[t] = true
		e.r.taintedThreads++
	}
}

func (e *taintEnv) ReadReg(lane int, reg isa.Reg) uint32 {
	slot := e.thread(lane)*e.numRegs + int(reg)
	if e.regTnt[slot] {
		e.laneTnt[lane] = true
	}
	return e.regs[slot]
}

func (e *taintEnv) WriteReg(lane int, reg isa.Reg, v uint32) {
	slot := e.thread(lane)*e.numRegs + int(reg)
	tainted := e.laneTnt[lane]
	if e.r.writeIdx == e.r.seedTarget {
		tainted = true
		e.r.res.Seeded = true
	}
	e.r.writeIdx++
	e.regTnt[slot] = tainted
	if tainted {
		e.r.res.TaintedInstrs++
		e.markThread(lane)
	}
	e.regs[slot] = v
}

func (e *taintEnv) ReadPred(lane int, p isa.Pred) bool {
	if e.predTnt[e.thread(lane)]&(1<<(p-1)) != 0 {
		e.laneTnt[lane] = true
	}
	return e.preds[e.thread(lane)]&(1<<(p-1)) != 0
}

func (e *taintEnv) WritePred(lane int, p isa.Pred, v bool) {
	t := e.thread(lane)
	if e.laneTnt[lane] {
		e.predTnt[t] |= 1 << (p - 1)
		e.markThread(lane)
	} else {
		e.predTnt[t] &^= 1 << (p - 1)
	}
	if v {
		e.preds[t] |= 1 << (p - 1)
	} else {
		e.preds[t] &^= 1 << (p - 1)
	}
}

func (e *taintEnv) Special(lane int, s isa.SReg) uint32 {
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

func (e *taintEnv) Param(idx int) uint32 {
	if idx < 0 || idx >= len(e.params) {
		return 0
	}
	return e.params[idx]
}

func (e *taintEnv) LoadGlobal(lane int, addr uint32, tex bool) (uint32, error) {
	if e.r.globalTnt[addr&^3] {
		e.laneTnt[lane] = true
	}
	return e.r.mem.Load4(addr)
}

func (e *taintEnv) StoreGlobal(lane int, addr uint32, v uint32) error {
	if e.laneTnt[lane] {
		e.r.globalTnt[addr&^3] = true
		e.markThread(lane)
	} else {
		delete(e.r.globalTnt, addr&^3)
	}
	return e.r.mem.Store4(addr, v)
}

func (e *taintEnv) LoadShared(lane int, addr uint32) (uint32, error) {
	if addr%4 != 0 || int(addr)+4 > len(e.smem) {
		return 0, fmt.Errorf("illegal shared memory read at 0x%x", addr)
	}
	if e.smemTnt[addr/4] {
		e.laneTnt[lane] = true
	}
	b := e.smem[addr:]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

func (e *taintEnv) StoreShared(lane int, addr uint32, v uint32) error {
	if addr%4 != 0 || int(addr)+4 > len(e.smem) {
		return fmt.Errorf("illegal shared memory write at 0x%x", addr)
	}
	e.smemTnt[addr/4] = e.laneTnt[lane]
	if e.laneTnt[lane] {
		e.markThread(lane)
	}
	b := e.smem[addr:]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

func (r *runner) launch(l *device.Launch) error {
	prog := l.Kernel
	threads := l.ThreadsPerCTA()
	for rep := 0; rep < l.NumReplicas(); rep++ {
		params := l.ParamsFor(rep)
		for cy := 0; cy < l.GridY; cy++ {
			for cx := 0; cx < l.GridX; cx++ {
				if err := r.runCTA(l, prog, params, cx, cy, threads); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (r *runner) runCTA(l *device.Launch, prog *isa.Program, params []uint32, cx, cy, threads int) error {
	env := &taintEnv{
		r:       r,
		params:  params,
		regs:    make([]uint32, threads*prog.NumRegs),
		regTnt:  make([]bool, threads*prog.NumRegs),
		preds:   make([]uint8, threads),
		predTnt: make([]uint8, threads),
		numRegs: prog.NumRegs,
		smem:    make([]byte, l.SmemBytes),
		smemTnt: make([]bool, (l.SmemBytes+3)/4),
		blockX:  l.BlockX, blockY: l.BlockY,
		ctaX: cx, ctaY: cy,
		gridX: l.GridX, gridY: l.GridY,
		threadTainted: make([]bool, threads),
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
	remaining := nWarps
	for remaining > 0 {
		progress := false
		for w := 0; w < nWarps; w++ {
			if done[w] || atBar[w] {
				continue
			}
			env.warpBase = w * 32
			for {
				env.laneTnt = [32]bool{}
				info := exec.Step(warps[w], prog, env)
				if info.Kind == exec.StepOK || info.Kind == exec.StepExit || info.Kind == exec.StepBarrier {
					r.dyn += int64(popcount(info.ActiveMask))
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
			return fmt.Errorf("propagate: CTA (%d,%d) deadlocked", cx, cy)
		}
	}
	return nil
}

func popcount(m uint32) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}
