// Package softfi is the NVBitFI analogue: software-level statistical fault
// injection. Each experiment flips one bit of the destination register value
// of one uniformly chosen dynamic instruction of the target kernel (faults
// land only in alive, software-visible data — §II-C), then classifies the
// functional run against the golden output. Variants restrict the candidate
// set to load instructions (SVF-LD) or corrupt a single operand use (the
// transient-operand ablation of §V-B).
package softfi

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/funcsim"
	"gpurel/internal/harden"
)

// Mode selects the injection candidate set.
type Mode uint8

// Injection modes.
const (
	// SVF: destination registers of all register-writing instructions.
	SVF Mode = iota
	// SVFLD: destination registers of load instructions only.
	SVFLD
	// SVFUse: one source-operand read, without corrupting stored state.
	SVFUse
)

func (m Mode) String() string {
	switch m {
	case SVF:
		return "SVF"
	case SVFLD:
		return "SVF-LD"
	case SVFUse:
		return "SVF-USE"
	}
	return "?"
}

// GoldenRun caches the fault-free functional execution and its CTA-boundary
// checkpoints (Res.Checkpoints), which every Inject forks from and joins
// back to. The checkpoints are read-only; the counters are atomic, so one
// GoldenRun serves any number of concurrent campaigns.
type GoldenRun struct {
	Res *funcsim.Result

	forks, forkSkipped atomic.Int64
	joins, joinSkipped atomic.Int64
	skips, skipSkipped atomic.Int64
}

// Golden runs the job fault-free, collecting per-kernel candidate windows
// and recording the checkpoints.
func Golden(job *device.Job) (*GoldenRun, error) {
	res := funcsim.Run(job, funcsim.Options{Record: true})
	if res.Err != nil {
		return nil, fmt.Errorf("golden run failed: %w", res.Err)
	}
	if res.TimedOut {
		return nil, fmt.Errorf("golden run timed out")
	}
	if res.DUEFlag {
		return nil, fmt.Errorf("golden run raised the DUE flag")
	}
	return &GoldenRun{Res: res}, nil
}

// CheckpointCounts reports a golden run's checkpoint inventory and the work
// fork-and-join has saved the injections made against it so far.
type CheckpointCounts struct {
	// Boundaries counts recorded checkpoints (CTA starts and host steps);
	// DeltaBytes is the memory log they share.
	Boundaries int64 `json:"boundaries"`
	DeltaBytes int64 `json:"delta_bytes"`
	// Forks counts runs resumed past the start of the job, ForkInstrsSkipped
	// the golden-prefix thread-instructions they did not execute.
	Forks             int64 `json:"forks"`
	ForkInstrsSkipped int64 `json:"fork_instrs_skipped"`
	// Joins counts runs that met golden memory at a later boundary,
	// JoinInstrsSkipped the golden-suffix thread-instructions not executed.
	Joins             int64 `json:"joins"`
	JoinInstrsSkipped int64 `json:"join_instrs_skipped"`
	// Skips counts CTAs after the fault that runs took from golden's record
	// because they read no corrupted word, SkipInstrsSkipped the
	// thread-instructions those CTAs did not execute.
	Skips             int64 `json:"skips"`
	SkipInstrsSkipped int64 `json:"skip_instrs_skipped"`
}

// Add accumulates o into c (aggregation across apps/goldens).
func (c *CheckpointCounts) Add(o CheckpointCounts) {
	c.Boundaries += o.Boundaries
	c.DeltaBytes += o.DeltaBytes
	c.Forks += o.Forks
	c.ForkInstrsSkipped += o.ForkInstrsSkipped
	c.Joins += o.Joins
	c.JoinInstrsSkipped += o.JoinInstrsSkipped
	c.Skips += o.Skips
	c.SkipInstrsSkipped += o.SkipInstrsSkipped
}

// CheckpointCounts is safe to call concurrently with injections.
func (g *GoldenRun) CheckpointCounts() CheckpointCounts {
	cps := g.Res.Checkpoints
	return CheckpointCounts{
		Boundaries:        int64(cps.Len()),
		DeltaBytes:        cps.DeltaBytes(),
		Forks:             g.forks.Load(),
		ForkInstrsSkipped: g.forkSkipped.Load(),
		Joins:             g.joins.Load(),
		JoinInstrsSkipped: g.joinSkipped.Load(),
		Skips:             g.skips.Load(),
		SkipInstrsSkipped: g.skipSkipped.Load(),
	}
}

// Target selects the kernel and candidate set of an experiment.
type Target struct {
	Kernel      string // "" = whole application
	Mode        Mode
	IncludeVote bool
}

func (t Target) windows(g *GoldenRun) []funcsim.Window {
	// iterate kernels in sorted order: window order must be deterministic
	names := make([]string, 0, len(g.Res.PerKernel))
	for name := range g.Res.PerKernel {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []funcsim.Window
	for _, name := range names {
		kc := g.Res.PerKernel[name]
		if t.Kernel != "" && name != t.Kernel && !(t.IncludeVote && name == harden.VoteKernelName) {
			continue
		}
		switch t.Mode {
		case SVF:
			out = append(out, kc.DstWindows...)
		case SVFLD:
			out = append(out, kc.LoadWindows...)
		case SVFUse:
			out = append(out, kc.UseWindows...)
		}
	}
	return out
}

// Candidates returns the number of injectable dynamic events for the target.
func (t Target) Candidates(g *GoldenRun) int64 {
	return total(t.windows(g))
}

func total(ws []funcsim.Window) int64 {
	var n int64
	for _, w := range ws {
		n += w.Len()
	}
	return n
}

// draw picks the injection site: a uniform candidate index of the target,
// then the bit.
func (t Target) draw(g *GoldenRun, rng *rand.Rand) (funcsim.Injection, bool) {
	ws := t.windows(g)
	n := total(ws)
	if n <= 0 {
		return funcsim.Injection{}, false
	}
	inj := funcsim.Injection{Mode: funcsim.InjectDst}
	switch t.Mode {
	case SVFLD:
		inj.Mode = funcsim.InjectDstLoad
	case SVFUse:
		inj.Mode = funcsim.InjectUse
	}
	k := rng.Int63n(n)
	for _, w := range ws {
		if k < w.Len() {
			inj.Index = w.Start + k
			break
		}
		k -= w.Len()
	}
	inj.Bit = uint8(rng.Intn(32))
	return inj, true
}

// budget is the timeout of a faulty run in thread-instructions.
func (g *GoldenRun) budget() int64 { return g.Res.DynInstrs * 10 }

// run executes one faulty run: forked from the last golden checkpoint before
// the site, joined to golden at the first later boundary where memory
// matches, and taking from golden every CTA in between that reads none of
// the corrupted words.
func (g *GoldenRun) run(job *device.Job, inj funcsim.Injection) *funcsim.Result {
	cps := g.Res.Checkpoints
	fork := cps.ForkPoint(inj)
	res := funcsim.Run(job, funcsim.Options{
		MaxDynInstrs: g.budget(),
		Inject:       &inj,
		Resume:       cps,
		ResumeAt:     fork,
	})
	if fork > 0 {
		g.forks.Add(1)
		g.forkSkipped.Add(cps.DynInstrsAt(fork))
	}
	if res.Joined {
		g.joins.Add(1)
		g.joinSkipped.Add(res.JoinSkipped)
	}
	if res.Skips > 0 {
		g.skips.Add(int64(res.Skips))
		g.skipSkipped.Add(res.SkipInstrs)
	}
	return res
}

// Inject performs one software-level injection experiment. The result is
// the one a replay of the whole job with the same fault classifies to.
func Inject(job *device.Job, g *GoldenRun, t Target, rng *rand.Rand) faults.Result {
	inj, ok := t.draw(g, rng)
	if !ok {
		return faults.Result{Outcome: faults.Masked, Detail: "no injection candidates"}
	}
	return Classify(g, g.run(job, inj))
}

// Classify compares a run against the golden functional run. The
// control-path proxy compares executed instruction counts (funcsim has no
// cycles).
func Classify(g *GoldenRun, res *funcsim.Result) faults.Result {
	switch {
	case res.TimedOut:
		return faults.Result{Outcome: faults.Timeout}
	case res.Err != nil:
		return faults.Result{Outcome: faults.DUE, Detail: res.Err.Error()}
	case res.DUEFlag:
		return faults.Result{Outcome: faults.DUE, Detail: "application-detected (TMR vote disagreement)"}
	case !bytes.Equal(res.Output, g.Res.Output):
		return faults.Result{Outcome: faults.SDC}
	default:
		return faults.Result{Outcome: faults.Masked, CtrlAffected: res.DynInstrs != g.Res.DynInstrs}
	}
}
