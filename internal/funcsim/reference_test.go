package funcsim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/isa"
)

// The reference executor: the generic interpreter exec.Step, re-decoding
// isa.Instr per warp-instruction and switching on the opcode per lane, over
// accessors that count candidates, inject and trace on every single register
// access. It shares no stepping, decode, operand, counting or injection code
// with runCTA / runWarp / data / the µop handlers, which is what makes
// agreement between the two evidence; what it does share is everything
// between CTAs (schedule walk, Record, Resume, join) and device.Memory. It
// exists in this package's test binary only, installed through ctaOracle by
// onReference.

// referenceSteps counts warp-instructions stepped by the reference executor,
// so tests can assert which executor a run went through.
var referenceSteps atomic.Int64

// onReference runs f with every funcsim.Run in the process — including ones
// reached through importing packages (softfi) and their worker goroutines —
// executing on the reference executor. Tests using it must not run in
// parallel with tests that expect the µop executor.
func onReference(f func()) {
	ctaOracle = runCTAReference
	defer func() { ctaOracle = nil }()
	f()
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

	// A traced run's events of the current step, in exec.Step's order, each
	// with its lane; flush reports them. guardLane is the last lane whose
	// guard exec.Step has read this step: it reads every live lane's guard
	// before any lane runs, in lane order, so a predicate read of a lane
	// above it is one more guard read, and any other is the lane's own.
	events    []laneEvent
	guardLane int
}

type laneEvent struct {
	lane int
	ev   Event
}

// trace buffers one access of the current step.
func (e *ctaEnv) trace(lane int, k EventKind, i uint32) {
	if e.r.opts.Trace != nil {
		e.events = append(e.events, laneEvent{lane, Event{Kind: k, Thread: e.thread(lane), Index: i, At: e.r.res.DynInstrs}})
	}
}

// flush reports the step's events lane by lane: each lane that executed the
// data instruction starts with EvLane and its guard, read once per lane here
// rather than for every live lane up front. A step that faulted stopped in
// the lane of its last access, or in its first lane if it made none.
func (e *ctaEnv) flush(info exec.StepInfo) {
	tr, ins := e.r.opts.Trace, info.Instr
	defer func() { e.events, e.guardLane = e.events[:0], -1 }()
	if tr == nil || ins == nil {
		return
	}
	switch ins.Op {
	case isa.OpBRA, isa.OpEXIT, isa.OpBAR, isa.OpNOP:
		return
	}
	mask := info.ActiveMask
	if info.Kind == exec.StepFault {
		last := bits.TrailingZeros32(mask)
		if n := len(e.events); n > 0 {
			last = e.events[n-1].lane
		}
		mask &= uint32(uint64(1)<<(last+1) - 1)
	}
	next := 0
	for lane := 0; mask != 0; lane, mask = lane+1, mask>>1 {
		if mask&1 == 0 {
			continue
		}
		tr.On(Event{Kind: EvLane, Thread: e.thread(lane), At: e.r.res.DynInstrs})
		if ins.Pred != isa.PT {
			tr.On(Event{Kind: EvPredRead, Thread: e.thread(lane), Index: 1 << (ins.Pred - 1), At: e.r.res.DynInstrs})
		}
		for ; next < len(e.events) && e.events[next].lane == lane; next++ {
			tr.On(e.events[next].ev)
		}
	}
}

func (e *ctaEnv) thread(lane int) int { return e.warpBase + lane }

func (e *ctaEnv) ReadReg(lane int, reg isa.Reg) uint32 {
	slot := e.thread(lane)*e.numRegs + int(reg)
	e.trace(lane, EvRead, uint32(slot))
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
	e.trace(lane, EvWrite, uint32(slot))
	e.regs[slot] = v
}

func (e *ctaEnv) ReadPred(lane int, p isa.Pred) bool {
	if e.curInstr.Pred != isa.PT && lane > e.guardLane {
		e.guardLane = lane
	} else {
		e.trace(lane, EvPredRead, 1<<(p-1))
	}
	return e.preds[e.thread(lane)]&(1<<(p-1)) != 0
}

func (e *ctaEnv) WritePred(lane int, p isa.Pred, v bool) {
	e.trace(lane, EvPredWrite, 1<<(p-1))
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
	e.trace(lane, EvLoad, addr)
	v, err := e.r.mem.Load4(addr)
	if err == nil && e.r.opts.Record {
		e.r.foot.loads = addWord(e.r.foot.loads, addr)
	}
	return v, err
}

func (e *ctaEnv) StoreGlobal(lane int, addr uint32, v uint32) error {
	e.trace(lane, EvStore, addr)
	err := e.r.mem.Store4(addr, v)
	if err == nil && e.r.foot != nil {
		e.r.foot.stores = addWord(e.r.foot.stores, addr)
	}
	return err
}

func (e *ctaEnv) LoadShared(lane int, addr uint32) (uint32, error) {
	e.trace(lane, EvLoadShared, addr)
	if addr%4 != 0 || int(addr)+4 > len(e.smem) {
		return 0, fmt.Errorf("illegal shared memory read at 0x%x", addr)
	}
	return le32(e.smem[addr:]), nil
}

func (e *ctaEnv) StoreShared(lane int, addr uint32, v uint32) error {
	e.trace(lane, EvStoreShared, addr)
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

// runCTAReference executes warps [from, to) of CTA number cta of the launch
// (replicas outermost, then grid y, then grid x), stepped round-robin to
// honour barriers.
func runCTAReference(r *runner, l *device.Launch, cta, from, to int) error {
	prog := l.Kernel
	perGrid := l.GridX * l.GridY
	params := l.ParamsFor(cta / perGrid)
	cy, cx := cta%perGrid/l.GridX, cta%l.GridX
	threads := l.ThreadsPerCTA()
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
		guardLane: -1,
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
		done[w] = w < from || w >= to
	}
	kc := r.kernelCounts(l.Name())

	remaining := to - from
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
				env.flush(info)
				referenceSteps.Add(1)
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
						warps[w].Advance()
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
