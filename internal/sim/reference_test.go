package sim

import (
	"sync/atomic"

	"gpurel/internal/exec"
	"gpurel/internal/isa"
)

// The reference core: the straightforward scheduler (modulo scan, per-slot
// CTA walk, no idle-skip) dispatching the generic interpreter exec.Step
// through simEnv's per-access register and predicate accessors, with
// instruction mix and latency classified from the architectural instruction.
// It shares no issue-loop, decode, control-flow, operand or special-register
// code with cycleSM / uop.(*Program).Issue / the µop handlers, which is what
// makes agreement between the two evidence.
// It exists in this package's test binary only, installed through
// cycleOracle by onReference; a reference has to be right, not slow, so it
// runs on the same snapshots, caches and memory as the µop core.

// referenceCycles counts SM-cycles executed by the reference core, so tests
// can assert which core a run went through.
var referenceCycles atomic.Int64

// onReference runs f with every sim.Run in the process — including ones
// reached through importing packages (microfi, adaptive) and their worker
// goroutines — executing on the reference core. Tests using it must not run
// in parallel with tests that expect the µop core.
func onReference(f func()) {
	cycleOracle = cycleSMReference
	defer func() { cycleOracle = nil }()
	f()
}

func cycleSMReference(r *runner, sm *SM, ks *KernelStats) (int, error) {
	referenceCycles.Add(1)
	// Flatten warp slots for round-robin issue.
	total := 0
	for _, c := range sm.ctas {
		total += len(c.warps)
	}
	issued := 0
	finished := 0
	for scan := 0; scan < total && issued < r.cfg.IssuePerCycle; scan++ {
		slot := (sm.issuePtr + scan) % total
		// locate (cta, warp) for slot
		var cta *ctaRT
		w := slot
		for _, c := range sm.ctas {
			if w < len(c.warps) {
				cta = c
				break
			}
			w -= len(c.warps)
		}
		m := &cta.meta[w]
		if m.done || m.atBar || m.ready > r.cycle {
			continue
		}
		issued++
		sm.issuePtr = (slot + 1) % total

		e := &r.env
		e.sm = sm
		e.cta = cta
		e.f.TBase = w * 32
		e.lat = 0
		e.lines = e.lines[:0]
		sm.markWarpRF(cta, w)

		var env exec.Env = e
		if lifeOracle != nil || cacheOracle != nil {
			env = oracleEnv{e}
		}
		info := exec.Step(cta.warps[w], cta.prog, env)
		if tr := r.opts.SchedTrace; tr != nil && info.Kind != exec.StepFault && info.Instr != nil {
			tr.OnIssue(cta.schedID, w, int(info.PC), info.ActiveMask, e.selPicksA(info.Instr, info.ActiveMask), r.cycle)
		}
		switch info.Kind {
		case exec.StepFault:
			return finished, info.Fault
		case exec.StepExit:
			n := popcount(info.ActiveMask)
			ks.DynInstrs += int64(n)
			m.done = true
			cta.live--
			if cta.live == 0 {
				r.retireCTA(sm, cta)
				finished++
				// slot indices shifted; restart issue scan next cycle
				return finished, nil
			}
			r.releaseBarrierIfReady(cta)
		case exec.StepBarrier:
			n := popcount(info.ActiveMask)
			ks.DynInstrs += int64(n)
			m.ready = r.cycle + int64(r.cfg.ALULat)
			m.atBar = true
			r.releaseBarrierIfReady(cta)
		default:
			r.countInstr(ks, info)
			m.ready = r.cycle + r.instrLatency(info)
		}
	}
	return finished, nil
}

func (r *runner) countInstr(ks *KernelStats, info exec.StepInfo) {
	n := int64(popcount(info.ActiveMask))
	ks.DynInstrs += n
	switch info.Instr.Op {
	case isa.OpLDG, isa.OpLDT:
		ks.LoadInstrs += n
	case isa.OpSTG:
		ks.StoreInstrs += n
	case isa.OpLDS, isa.OpSTS:
		ks.SmemInstrs += n
	}
}

func (r *runner) instrLatency(info exec.StepInfo) int64 {
	switch info.Instr.Op {
	case isa.OpMUFU:
		return int64(r.cfg.SFULat)
	case isa.OpLDS, isa.OpSTS:
		return int64(r.cfg.SMemLat)
	case isa.OpLDG, isa.OpSTG, isa.OpLDT:
		lat := r.env.lat
		if lat < int64(r.cfg.ALULat) {
			lat = int64(r.cfg.ALULat)
		}
		return lat
	default:
		return int64(r.cfg.ALULat)
	}
}

// The exec.Env register, predicate, special-register and parameter
// accessors. The µop handlers index the same arrays directly and read the
// CTA through their frame; only exec.Step needs these, so simEnv implements
// exec.Env in this test binary alone.

func (e *simEnv) thread(lane int) int { return e.f.TBase + lane }

func (e *simEnv) regIndex(lane int, reg isa.Reg) int {
	return e.cta.rfBase + e.thread(lane)*e.cta.prog.NumRegs + int(reg)
}

func (e *simEnv) ReadReg(lane int, reg isa.Reg) uint32 {
	idx := e.regIndex(lane, reg)
	if o := lifeOracle; o != nil {
		o.access(e.sm.ID, idx, false)
	}
	return e.sm.RF[idx]
}

func (e *simEnv) WriteReg(lane int, reg isa.Reg, v uint32) {
	idx := e.regIndex(lane, reg)
	if o := lifeOracle; o != nil {
		o.access(e.sm.ID, idx, true)
	}
	e.sm.RF[idx] = v
}

// selPicksA is the schedule trace's SEL pick mask read the reference way:
// the lanes of mask whose SelPred, through the predicate accessor, picked
// SrcA.
func (e *simEnv) selPicksA(ins *isa.Instr, mask uint32) uint32 {
	if ins.Op != isa.OpSEL {
		return 0
	}
	var a uint32
	for lane := 0; lane < 32; lane++ {
		if mask&(1<<lane) != 0 && (ins.SelPred == isa.PT || e.ReadPred(lane, ins.SelPred)) != ins.SelPredNeg {
			a |= 1 << lane
		}
	}
	return a
}

func (e *simEnv) ReadPred(lane int, p isa.Pred) bool {
	return e.cta.preds[e.thread(lane)]&(1<<(p-1)) != 0
}

func (e *simEnv) WritePred(lane int, p isa.Pred, v bool) {
	if v {
		e.cta.preds[e.thread(lane)] |= 1 << (p - 1)
	} else {
		e.cta.preds[e.thread(lane)] &^= 1 << (p - 1)
	}
}

func (e *simEnv) Special(lane int, s isa.SReg) uint32 {
	t := e.thread(lane)
	l := e.cta.Launch
	switch s {
	case isa.SRTidX:
		return uint32(t % l.BlockX)
	case isa.SRTidY:
		return uint32(t / l.BlockX)
	case isa.SRCtaIDX:
		return uint32(e.cta.X)
	case isa.SRCtaIDY:
		return uint32(e.cta.Y)
	case isa.SRNTidX:
		return uint32(l.BlockX)
	case isa.SRNTidY:
		return uint32(l.BlockY)
	case isa.SRNCtaX:
		return uint32(l.GridX)
	case isa.SRNCtaY:
		return uint32(l.GridY)
	case isa.SRLaneID:
		return uint32(lane)
	}
	return 0
}

func (e *simEnv) Param(idx int) uint32 {
	if idx < 0 || idx >= len(e.cta.Params) {
		return 0
	}
	return e.cta.Params[idx]
}
