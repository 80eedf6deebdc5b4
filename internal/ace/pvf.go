package ace

import (
	"fmt"

	"gpurel/internal/device"
	"gpurel/internal/funcsim"
)

// PVF analysis: the Program Vulnerability Factor of Sridharan & Kaeli
// (paper §VII) measures the microarchitecture-independent portion of AVF by
// applying ACE analysis to *architectural* resources. Here the resource is
// the architectural register file: every CTA's thread registers, alive for
// the CTA's execution window, measured in dynamic instructions instead of
// cycles:
//
//	PVF(RF) = Σ ACE intervals / Σ_CTA (threads × regs × CTA instructions)
//
// PVF sits between SVF and AVF on the abstraction ladder: like SVF it knows
// nothing about the hardware (no derating, no structure sizes, no timing),
// but like AVF it reasons about liveness instead of sampling injections.

// regState tracks the live interval of one architectural register.
type regState struct {
	lastWrite int64 // dynamic instruction of the most recent write
	lastRead  int64 // dynamic instruction of the last read at or after lastWrite
	written   bool
}

// pvfTracker is a funcsim.Tracer that follows register reads and writes.
type pvfTracker struct {
	slots    []regState
	ctaStart int64
	aceSum   int64
	denom    int64
}

func (p *pvfTracker) OnCTAStart(l *device.Launch, at int64) {
	n := l.ThreadsPerCTA() * l.Kernel.NumRegs
	if cap(p.slots) < n {
		p.slots = make([]regState, n)
	} else {
		p.slots = p.slots[:n]
		for i := range p.slots {
			p.slots[i] = regState{}
		}
	}
	p.ctaStart = at
}

func (p *pvfTracker) On(ev funcsim.Event) {
	switch ev.Kind {
	case funcsim.EvWrite:
		s := &p.slots[ev.Index]
		if s.written && s.lastRead > s.lastWrite {
			p.aceSum += s.lastRead - s.lastWrite
		}
		s.lastWrite = ev.At
		s.lastRead = ev.At
		s.written = true
	case funcsim.EvRead:
		if s := &p.slots[ev.Index]; s.written && ev.At > s.lastRead {
			s.lastRead = ev.At
		}
	}
}

func (p *pvfTracker) OnCTAEnd(at int64) {
	for i := range p.slots {
		s := &p.slots[i]
		if s.written && s.lastRead > s.lastWrite {
			p.aceSum += s.lastRead - s.lastWrite
		}
		s.written = false
	}
	p.denom += int64(len(p.slots)) * (at - p.ctaStart)
}

// PVFResult reports one PVF analysis.
type PVFResult struct {
	PVF       float64
	ACEInstrs int64 // Σ ACE register-instruction intervals
	DynInstrs int64
}

// AnalyzePVF computes the register-file PVF of a job from a single
// functional run.
func AnalyzePVF(job *device.Job) (*PVFResult, error) {
	tr := &pvfTracker{}
	res := funcsim.Run(job, funcsim.Options{Trace: tr})
	if res.Err != nil {
		return nil, fmt.Errorf("pvf: golden run failed: %w", res.Err)
	}
	if res.TimedOut {
		return nil, fmt.Errorf("pvf: golden run timed out")
	}
	out := &PVFResult{ACEInstrs: tr.aceSum, DynInstrs: res.DynInstrs}
	if tr.denom > 0 {
		out.PVF = float64(tr.aceSum) / float64(tr.denom)
	}
	return out, nil
}
