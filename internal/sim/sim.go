// Package sim is the microarchitecture-level GPU simulator — the GPGPU-Sim
// analogue on which cross-layer AVF measurement runs. It models an array of
// SMs with physical register files and shared memories (real storage arrays
// with per-cycle allocation, the fault-injection targets), per-SM L1 data
// and texture caches, a shared write-back L2, SIMT divergence, CTA-wide
// barriers, CTA scheduling under occupancy limits, and an in-order
// scoreboard timing model.
//
// A fault-injection hook fires at an exact cycle and receives the Machine,
// giving the injector access to every storage array exactly as gpuFI-4
// patches GPGPU-Sim's structures.
package sim

import (
	"fmt"
	"math/bits"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
	"gpurel/internal/pages"
	"gpurel/internal/uop"
)

// block is a contiguous allocation in a physical storage array.
type block struct{ base, size int }

// allocator is a first-fit free-list allocator over [0, capacity).
type allocator struct {
	capacity int
	free     []block
}

func newAllocator(capacity int) *allocator {
	return &allocator{capacity: capacity, free: []block{{0, capacity}}}
}

func (a *allocator) alloc(size int) (int, bool) {
	if size == 0 {
		return 0, true
	}
	for i := range a.free {
		if a.free[i].size >= size {
			base := a.free[i].base
			a.free[i].base += size
			a.free[i].size -= size
			if a.free[i].size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return base, true
		}
	}
	return 0, false
}

func (a *allocator) release(base, size int) {
	if size == 0 {
		return
	}
	// insert sorted and coalesce
	pos := len(a.free)
	for i := range a.free {
		if a.free[i].base > base {
			pos = i
			break
		}
	}
	a.free = append(a.free, block{})
	copy(a.free[pos+1:], a.free[pos:])
	a.free[pos] = block{base, size}
	// coalesce around pos
	merged := a.free[:0]
	for _, b := range a.free {
		n := len(merged)
		if n > 0 && merged[n-1].base+merged[n-1].size == b.base {
			merged[n-1].size += b.size
		} else {
			merged = append(merged, b)
		}
	}
	a.free = merged
}

// Copy-on-write snapshot page geometry. RF pages are counted in registers
// (uint32 words), SMEM pages in bytes. Small pages maximize structural
// sharing between consecutive snapshots; the dirty bitsets stay tiny (one
// uint64 covers 64 pages).
const (
	rfPageWords = 512
	smPageBytes = 512
)

// SM is one streaming multiprocessor: its physical register file and shared
// memory arrays (injection targets), caches, and resident CTAs.
type SM struct {
	ID      int
	RF      []uint32
	Smem    []byte
	rfAlloc *allocator
	smAlloc *allocator
	L1D     *mem.Cache
	L1T     *mem.Cache
	hier    mem.Hierarchy

	ctas        []*ctaRT
	threadsUsed int
	issuePtr    int

	// RF and Smem as the pages of copy-on-write snapshots: dirty bit p set
	// means RF (resp. SMEM) page p may have diverged from the runner's base
	// snapshot. The simulator marks what it can write before it writes it:
	// a warp's first issue since the last sync marks its register window
	// (markWarpRF), and a CTA's first shared-memory store its allocation, so
	// a page no warp has written into since the last sync stays clean and
	// shared. Code that mutates RF/Smem directly from outside the
	// interpreter (fault injectors, tests poking arrays through Machine) must
	// call MarkRF/MarkSmem itself.
	rf, smem pages.Bytes

	// slots flattens resident warps for round-robin issue: one entry per
	// (cta, warp) in CTA placement order. Rebuilt whenever residency
	// changes so the issue scan is a single index.
	slots []warpSlot

	// nextReady is a conservative lower bound on the next cycle any resident
	// warp can issue: never while every one is done or parked at a barrier.
	// cycleSM publishes it after a scan that issued nothing and skips the scan
	// while it lies ahead; runLaunch takes the minimum over the resident SMs
	// and jumps simulated time straight to it (see nextEvent). 0 forces a
	// scan; any event that can change issue eligibility outside the scan
	// itself (placement, retirement, restore, reset, an injection hook)
	// resets it. Derived state: never snapshotted or compared.
	nextReady int64
}

type warpSlot struct {
	cta *ctaRT
	w   int
	m   *warpMeta // &cta.meta[w], so the issue scan skips a double deref
	// rfMarked records that the warp's register window has been marked since
	// the last snapshot sync, so later issues skip markWarpRF. Derived state:
	// cleared by syncDirty and by every rebuild, never snapshotted.
	rfMarked bool
}

// rebuildSlots refreshes the flattened issue order after a residency change.
func (s *SM) rebuildSlots() {
	s.slots = s.slots[:0]
	for _, c := range s.ctas {
		for w := range c.warps {
			s.slots = append(s.slots, warpSlot{cta: c, w: w, m: &c.meta[w]})
		}
	}
}

// MarkRF records a direct mutation of RF[idx] for copy-on-write snapshot
// tracking. Out-of-range indices are ignored.
func (s *SM) MarkRF(idx int) {
	if idx >= 0 && idx < len(s.RF) {
		s.rf.Dirty().Mark(idx / rfPageWords)
	}
}

// MarkSmem records a direct mutation of Smem[idx].
func (s *SM) MarkSmem(idx int) {
	if idx >= 0 && idx < len(s.Smem) {
		s.smem.Dirty().Mark(idx / smPageBytes)
	}
}

// markWarpRF marks the register-file pages warp w of cta can write when it
// issues: its window [rfBase + w·32·NumRegs, +32·NumRegs), clamped to the
// CTA's allocation (a partial last warp has fewer lanes) — one or two pages
// for the shipped kernels. Every register write of an issue lands in the
// window: lane l writes RF[rfBase + (w·32+l)·NumRegs + r] with l below the
// warp's lane count (control faults clamp active masks to FullMask) and r
// below NumRegs, which isa.Program.Validate guarantees for every program
// the simulator is given (TestShippedProgramsValidate). The µop core calls
// it at a warp's first issue since the last sync, the reference core at
// every issue; both leave the same bits set, so their snapshot sets stay
// byte-identical.
func (s *SM) markWarpRF(cta *ctaRT, w int) {
	base := cta.rfBase + w*32*cta.prog.NumRegs
	s.rf.Dirty().MarkSpan(base, min(base+32*cta.prog.NumRegs, cta.rfBase+cta.rfSize), rfPageWords)
}

// AllocatedRF returns the allocated register blocks (base, size in
// registers) of resident CTAs; the injector draws uniformly from these.
func (s *SM) AllocatedRF() []RFBlock {
	var out []RFBlock
	for _, c := range s.ctas {
		if c.rfSize > 0 {
			out = append(out, RFBlock{Base: c.rfBase, Size: c.rfSize})
		}
	}
	return out
}

// AllocatedSmem returns the allocated shared-memory blocks in bytes.
func (s *SM) AllocatedSmem() []RFBlock {
	var out []RFBlock
	for _, c := range s.ctas {
		if c.smSize > 0 {
			out = append(out, RFBlock{Base: c.smBase, Size: c.smSize})
		}
	}
	return out
}

// RFBlock is a contiguous allocated region of a storage array.
type RFBlock struct{ Base, Size int }

// Machine is the injectable hardware state handed to the OnCycle hook.
type Machine struct {
	Cfg gpu.Config
	SMs []*SM
	L2  *mem.Cache
	Mem *device.Memory
}

// warpMeta is the scoreboard state of one warp.
type warpMeta struct {
	ready int64
	atBar bool
	done  bool
}

// ctaRT is a resident CTA.
type ctaRT struct {
	uop.CTA // launch, replica parameters and grid position: what S2R and LDC read
	ctaScalars
	uprog *uop.Program // prog, pre-decoded

	warps []*exec.Warp
	meta  []warpMeta
	preds []uint8

	// smMarked records that the CTA's shared-memory allocation has been
	// marked dirty since the last snapshot sync (at its first store), so
	// later stores skip the marking. Derived state: cleared by syncDirty,
	// false in a restored CTA, never snapshotted.
	smMarked bool

	// smTrack routes the CTA's LDS and STS through runner.noteShared: set
	// while a fault-free run records stored (one bit per shared-memory word
	// the CTA has stored since placement) or while a SchedTracer listens.
	// Never snapshotted: a restored CTA has no stored record.
	smTrack bool
	stored  []uint64
}

// ctaScalars is the scalar state of a resident CTA, all of which a snapshot
// copies and a join compares.
type ctaScalars struct {
	prog *isa.Program
	live int // warps not yet done

	rfBase, rfSize int
	smBase, smSize int
	threads        int

	// schedID is the dense CTA id in placement order, unique across the
	// whole run. SchedTracer callbacks report it, and snapshots carry it so
	// resumed runs keep issuing coherent ids.
	schedID int
}

// KernelStats aggregates the fault-free profile of one kernel — the resource
// utilisation metrics of Figure 3.
type KernelStats struct {
	Cycles       int64
	DynInstrs    int64
	LoadInstrs   int64
	StoreInstrs  int64
	SmemInstrs   int64
	L1D, L1T, L2 mem.Stats
	DRAMRead     int64
	DRAMWrite    int64
	OccupancySum int64 // resident threads summed over active cycles
	Launches     int64
}

// Occupancy returns achieved occupancy: mean resident threads over the
// kernel's cycles divided by the chip's thread capacity.
func (k *KernelStats) Occupancy(cfg gpu.Config) float64 {
	if k.Cycles == 0 {
		return 0
	}
	capacity := float64(cfg.NumSMs * cfg.MaxThreadsPerSM)
	return float64(k.OccupancySum) / float64(k.Cycles) / capacity
}

// LaunchSpan records the cycle window of one launch, with the data needed
// for derating factors.
type LaunchSpan struct {
	Kernel        string
	Start, End    int64
	Threads       int64 // total threads incl. replicas
	RegsPerThread int
	SmemPerCTA    int
	CTAs          int64
}

// RFDeratingFactor is size_per_thread × num_threads / system_size for the
// register file (§II-B), capped at 1.
func (s LaunchSpan) RFDeratingFactor(cfg gpu.Config) float64 {
	df := float64(s.RegsPerThread) * float64(s.Threads) / float64(int64(cfg.NumSMs)*int64(cfg.RFRegsPerSM))
	return min(df, 1)
}

// SmemDeratingFactor is the shared-memory analogue, allocated per CTA.
func (s LaunchSpan) SmemDeratingFactor(cfg gpu.Config) float64 {
	df := float64(s.SmemPerCTA) * float64(s.CTAs) / float64(int64(cfg.NumSMs)*int64(cfg.SmemPerSM))
	return min(df, 1)
}

// Result reports one simulated run.
type Result struct {
	Err       error // non-nil = DUE
	TimedOut  bool
	Output    []byte
	Cycles    int64
	Spans     []LaunchSpan
	PerKernel map[string]*KernelStats
	DUEFlag   bool
	// Converged reports that the run's complete machine state became
	// bit-identical to the reference snapshot at cycle ConvergedAt (see
	// Options.Converge); the remaining simulation was skipped because its
	// outcome equals the reference run's suffix.
	Converged   bool
	ConvergedAt int64
	// FreeDead is set on a fault-free run (no injection hook, not resumed)
	// that completed when storage a retired CTA frees is dead: every program
	// the job launches is clean under flow.Lint's uninit-read rule, and no
	// LDS read a shared-memory word its CTA had not stored since placement.
	// The register-file and shared-memory pruners rely on it (freedead.go).
	FreeDead bool
	// Stepped counts the cycles this run actually executed, from cycle 0 or
	// from the snapshot it resumed; the rest of its simulated cycles were idle
	// and taken in jumps (see runLaunch). It describes how the simulator
	// spent its time, not the simulated machine: it is not part of any
	// snapshot and two runs that agree in everything else may differ in it.
	Stepped int64
}

// SchedTracer observes the deterministic schedule of a run: every CTA
// placement and retirement with its physical register-file and shared-memory
// allocation, every warp instruction issue with its post-predication active
// lane mask, and every shared-memory access. CTAs are identified by a dense
// id assigned in placement order (unique across the whole run). Signatures
// use only basic types and *isa.Program so analysis packages can implement
// the interface structurally without importing sim. Implementations must be
// fast; OnIssue runs once per issued instruction on the hot loop.
type SchedTracer interface {
	// OnCTAPlace fires when a CTA lands on an SM: phys allocations are
	// [rfBase, rfBase+rfSize) registers and [smBase, smBase+smSize) bytes.
	OnCTAPlace(cta, sm, rfBase, rfSize, smBase, smSize, threads int, prog *isa.Program, cycle int64)
	// OnIssue fires after one warp instruction executes: pc is the executed
	// instruction's index and mask the lanes that actually ran it (guard
	// predicates already applied — a lane outside the mask touched nothing).
	// For a SEL, selA holds the lanes of mask whose predicate picked SrcA
	// (the others read SrcB); it is 0 for every other instruction. An
	// instruction that faults does not fire OnIssue.
	OnIssue(cta, warp, pc int, mask, selA uint32, cycle int64)
	// OnShared fires for each lane of an LDS or STS as the lane accesses
	// shared-memory word `word` (its CTA-relative byte address / 4) of the
	// CTA, in execution order and before the instruction's OnIssue. An
	// instruction that faults has reported the accesses its lanes made
	// before the fault.
	OnShared(cta, word int, store bool, cycle int64)
	// OnCTARetire fires when the CTA's allocations are released.
	OnCTARetire(cta int, cycle int64)
}

// Options configures a run.
type Options struct {
	// MaxCycles is the timeout budget (0 = none).
	MaxCycles int64
	// AtCycle/OnCycle: fault-injection hook, fired once when the global
	// cycle counter reaches AtCycle (must be > 0 to arm).
	AtCycle int64
	OnCycle func(*Machine)
	// EachCycle, when set, fires once the AtCycle hook has fired — on the
	// injection cycle itself immediately after OnCycle, then at the top of
	// every cycle in which the machine can have changed since it last ran,
	// until the run ends. Persistent fault models (stuck-at cells, latched
	// control state) use it to re-assert the defective bit so that
	// intervening writes cannot heal it. Callbacks must be idempotent and a
	// pure function of the machine (never of the cycle number or a call
	// count): that is what makes skipping the calls over an idle span, in
	// which nothing was placed, issued or retired, bit-identical to making
	// one per cycle. They run on the hot loop, so they must be cheap.
	EachCycle func(*Machine)
	// SchedTrace, when set, receives the scheduled execution order (used by
	// the register-lifetime recorder in internal/flow). CTA ids are dense in
	// placement order and survive Resume (the id counter is part of the
	// snapshot), but a resumed run only reports events from the snapshot
	// cycle on — OnCTAPlace for already-resident CTAs does not replay.
	SchedTrace SchedTracer
	// Frames, when set on a fault-free run from cycle 0, receives the data
	// record of every cache frame, sealed when the run ends. Runs with an
	// injection hook or a snapshot to resume must leave it nil.
	Frames *FrameRecord

	// Checkpoint, when set, captures a machine snapshot into the set at the
	// end of every cycle divisible by its stride (reference/golden runs).
	Checkpoint *SnapshotSet
	// Resume, when set, restores the snapshot and continues from its cycle
	// instead of simulating from cycle 0. The snapshot must have been taken
	// from a run of the same job on the same configuration, and AtCycle (if
	// armed) must be strictly greater than the snapshot's cycle.
	Resume *Snapshot
	// Converge, when set, compares live machine state against the set's
	// snapshot at each checkpoint cycle once the injection hook has fired;
	// on exact match the run stops with Converged set, since its remaining
	// trajectory is bit-identical to the reference run's.
	Converge *SnapshotSet
	// Pool, when set, recycles machine storage arrays across runs to keep
	// per-run allocation off the injection hot path.
	Pool *RunPool
}

// FrameRecord is the data record of every cache of a fault-free run
// (Options.Frames): when a flip into each frame's words reaches a read
// (mem.FrameLog).
type FrameRecord struct {
	L1D, L1T []*mem.FrameLog // indexed by SM
	L2       *mem.FrameLog
}

// Logs returns the records of structure s, a cache: one per SM for L1D and
// L1T, in SM order, and the single L2 record. It returns nil for any other
// structure.
func (f *FrameRecord) Logs(s gpu.Structure) []*mem.FrameLog {
	switch s {
	case gpu.L1D:
		return f.L1D
	case gpu.L1T:
		return f.L1T
	case gpu.L2:
		return []*mem.FrameLog{f.L2}
	}
	return nil
}

// Check validates every cache record of a sealed run of the given number of
// cycles (mem.FrameLog.Check) and returns the first violation, or nil.
func (f *FrameRecord) Check(cycles int64) error {
	for _, s := range []gpu.Structure{gpu.L1D, gpu.L1T, gpu.L2} {
		for sm, l := range f.Logs(s) {
			if err := l.Check(cycles); err != nil {
				return fmt.Errorf("%v%d: %w", s, sm, err)
			}
		}
	}
	return nil
}

// Run simulates the job on a chip with configuration cfg.
func Run(job *device.Job, cfg gpu.Config, opts Options) *Result {
	r := newRunner(job, cfg, opts)
	res := r.run()
	if f := opts.Frames; f != nil {
		f.L2.Seal()
		for sm := range f.L1D {
			f.L1D[sm].Seal()
			f.L1T[sm].Seal()
		}
	}
	if opts.Pool != nil {
		opts.Pool.put(r)
	}
	return res
}

type runner struct {
	job  *device.Job
	cfg  gpu.Config
	opts Options

	mem   *device.Memory
	sms   []*SM
	l2    *mem.Cache
	fired bool

	runScalars
	cur *launchState // the in-flight launch, nil between steps

	// arrays and caches list the machine's paged storage in the order
	// snapshots hold it: each SM's register file and shared memory, and the
	// L2 then each SM's L1D and L1T.
	arrays []*pages.Bytes
	caches []*mem.Cache

	// Per-kernel stats as dense parallel slices keyed by first-launch order;
	// Result.PerKernel is materialized from them once, when the run ends.
	// Hot-loop code holds *KernelStats pointers into kstats only within one
	// launch (no appends happen mid-launch, so the pointers stay valid).
	knames []string
	kstats []KernelStats

	// baseSnap is the provenance base for copy-on-write pages: every RF,
	// SMEM, device-memory page and cache set whose dirty bit is clear is
	// bit-identical to (and for capture, shareable with) the corresponding
	// page of this snapshot. nil means no provenance — captures copy and
	// restores overwrite everything. It travels with the pooled machine, since the
	// dirty bits live in the SM arrays it validates.
	baseSnap *Snapshot

	// lastDiff remembers the page of arrays where the previous snapshot
	// compare failed, probed first on the next compare. Derived state:
	// never snapshotted or compared.
	lastDiff diffProbe

	// recordSmem marks a fault-free run, which records the shared-memory
	// half of the FreeDead guard; smemUninit is what it found (both in
	// freedead.go).
	recordSmem bool
	smemUninit bool

	res  *Result
	env  simEnv
	mach *Machine // memoized machine view handed to the cycle hooks
}

// runScalars is the runner's scalar state, all of which a snapshot copies
// and a join compares: the cycle, the schedule position (step index and
// steps consumed against the budget), the next dense CTA id in placement
// order, and the DRAM traffic.
type runScalars struct {
	cycle               int64
	si, steps           int
	schedNext           int
	dramRead, dramWrite int64
}

// diffProbe locates the first differing page of a failed snapshot compare:
// page `page` of runner.arrays[array].
type diffProbe struct {
	array, page int
	valid       bool
}

// launchState is the progress of one in-flight kernel launch.
type launchState struct {
	launchScalars
	pending []pendingCTA
}

// launchScalars is the scalar progress of a launch, all of which a snapshot
// copies and a join compares.
type launchScalars struct {
	l         *device.Launch
	resident  int
	nextSM    int
	span      LaunchSpan
	statsBase statsSnapshot
}

func newRunner(job *device.Job, cfg gpu.Config, opts Options) *runner {
	r := &runner{
		job:  job,
		cfg:  cfg,
		opts: opts,
		res:  &Result{},
	}
	var pm *pooledMachine
	if opts.Pool != nil {
		pm = opts.Pool.get(cfg, job.Mem.Footprint())
	}
	if pm != nil {
		r.sms, r.l2, r.mem = pm.sms, pm.l2, pm.mem
		if opts.Resume == nil {
			// A fresh run must start from pristine state; a recycled machine
			// carries the previous run's residue, which corrupted control
			// flow could observe (e.g. reading a register it never wrote).
			// Resumed runs skip this: restore overwrites every array.
			for _, sm := range r.sms {
				resetSM(sm, cfg)
			}
			r.l2.Reset()
			r.mem = job.Mem.CloneFootprint(r.mem)
		} else {
			// Resumed runs inherit the pooled machine's page provenance:
			// its arrays were last synced against pm.baseSnap, so a restore
			// only needs to overwrite pages that diverge from the target.
			r.baseSnap = pm.baseSnap
		}
	} else {
		r.mem = job.Mem.CloneFootprint(nil)
		r.l2 = mem.NewCache("L2", cfg.L2Bytes, cfg.LineSize, cfg.L2Ways, cfg.L2MSHRs)
		for i := 0; i < cfg.NumSMs; i++ {
			sm := &SM{
				ID:      i,
				RF:      make([]uint32, cfg.RFRegsPerSM),
				Smem:    make([]byte, cfg.SmemPerSM),
				rfAlloc: newAllocator(cfg.RFRegsPerSM),
				smAlloc: newAllocator(cfg.SmemPerSM),
				L1D:     mem.NewCache(fmt.Sprintf("L1D%d", i), cfg.L1DBytes, cfg.LineSize, cfg.L1Ways, cfg.L1MSHRs),
				L1T:     mem.NewCache(fmt.Sprintf("L1T%d", i), cfg.L1TBytes, cfg.LineSize, cfg.L1Ways, cfg.L1MSHRs),
			}
			sm.rf = pages.NewBytes(pages.Words(sm.RF), 4*rfPageWords)
			sm.smem = pages.NewBytes(sm.Smem, smPageBytes)
			r.sms = append(r.sms, sm)
		}
	}
	// The hierarchy holds pointers to this runner's DRAM counters, so it is
	// rewired even when the SM arrays come from the pool.
	r.arrays = make([]*pages.Bytes, 0, 2*len(r.sms))
	r.caches = append(make([]*mem.Cache, 0, 1+2*len(r.sms)), r.l2)
	for _, sm := range r.sms {
		sm.hier = mem.Hierarchy{
			L1D: sm.L1D, L1T: sm.L1T, L2: r.l2,
			DRAMRead: &r.dramRead, DRAMWrite: &r.dramWrite,
			L1Lat: int64(cfg.L1Lat), L2Lat: int64(cfg.L2Lat), DRAMLat: int64(cfg.DRAMLat),
		}
		r.arrays = append(r.arrays, &sm.rf, &sm.smem)
		r.caches = append(r.caches, sm.L1D, sm.L1T)
	}
	if f := opts.Frames; f != nil {
		f.L2 = r.l2.RecordFrames()
		f.L1D, f.L1T = nil, nil
		for _, sm := range r.sms {
			f.L1D = append(f.L1D, sm.L1D.RecordFrames())
			f.L1T = append(f.L1T, sm.L1T.RecordFrames())
		}
	}
	r.env.r = r
	r.recordSmem = opts.AtCycle <= 0 && opts.Resume == nil
	return r
}

// resetSM returns a pooled SM to its post-construction state.
func resetSM(sm *SM, cfg gpu.Config) {
	clear(sm.RF)
	clear(sm.Smem)
	sm.rfAlloc.free = append(sm.rfAlloc.free[:0], block{0, cfg.RFRegsPerSM})
	sm.smAlloc.free = append(sm.smAlloc.free[:0], block{0, cfg.SmemPerSM})
	sm.L1D.Reset()
	sm.L1T.Reset()
	sm.ctas = sm.ctas[:0]
	sm.slots = sm.slots[:0]
	sm.nextReady = 0
	sm.threadsUsed = 0
	sm.issuePtr = 0
}

func (r *runner) machine() *Machine {
	// Memoized: EachCycle hooks call this every cycle, and the referenced
	// state (SM slice, caches, memory image) is fixed for the runner's life.
	if r.mach == nil {
		r.mach = &Machine{Cfg: r.cfg, SMs: r.sms, L2: r.l2, Mem: r.mem}
	}
	return r.mach
}

// kernelStats returns the stats slot for name, appending one on first use.
// Kernels are few (a handful per job), so a linear scan over the dense slice
// beats a map here and keeps snapshot compare/copy allocation-free. The
// returned pointer is invalidated by the next append; hot-loop callers only
// hold it within a single launch.
func (r *runner) kernelStats(name string) *KernelStats {
	for i, n := range r.knames {
		if n == name {
			return &r.kstats[i]
		}
	}
	r.knames = append(r.knames, name)
	r.kstats = append(r.kstats, KernelStats{})
	return &r.kstats[len(r.kstats)-1]
}

// finalizeStats materializes the public PerKernel map from the dense slices
// once the run is over.
func (r *runner) finalizeStats() {
	r.res.PerKernel = make(map[string]*KernelStats, len(r.knames))
	for i, n := range r.knames {
		r.res.PerKernel[n] = &r.kstats[i]
	}
}

var (
	errSimTimeout   = fmt.Errorf("cycle budget exceeded")
	errSimConverged = fmt.Errorf("state converged with reference run")
)

func (r *runner) run() *Result {
	res := r.runSteps()
	r.finalizeStats()
	return res
}

func (r *runner) runSteps() *Result {
	maxSteps := r.job.MaxScheduleSteps()
	if r.opts.Resume != nil {
		r.restore(r.opts.Resume)
	}
	for r.cur != nil || r.si < len(r.job.Steps) {
		if r.cur == nil {
			if r.steps >= maxSteps {
				r.res.TimedOut = true
				return r.res
			}
			r.steps++
			st := &r.job.Steps[r.si]
			if st.Host != nil {
				// Host access goes through cudaMemcpy, which is coherent with
				// L2: write dirty lines back so the host reads the kernels'
				// stores, then invalidate the GPU caches only if the host
				// actually wrote — read-only host steps (D2H checks, no-op
				// hardening guards) leave the caches warm.
				r.flushCaches(false)
				r.mem.ResetDirty()
				next := st.Host(r.mem, 0)
				if r.mem.Dirty() {
					r.flushCaches(true)
				}
				if next >= 0 {
					r.si = next
				} else {
					r.si++
				}
				continue
			}
			if err := r.beginLaunch(st.Launch); err != nil {
				r.res.Err = err
				return r.res
			}
		}
		if err := r.runLaunch(); err != nil {
			switch err {
			case errSimTimeout:
				r.res.TimedOut = true
			case errSimConverged:
				r.res.Converged = true
				r.res.ConvergedAt = r.cycle
			default:
				r.res.Err = err
			}
			return r.res
		}
		r.si++
	}
	r.flushCaches(false)
	r.res.Cycles = r.cycle
	r.res.Output = r.job.ReadOutputs(r.mem)
	if r.job.DUEFlag != 0 && r.mem.PeekU32(r.job.DUEFlag) != 0 {
		r.res.DUEFlag = true
	}
	r.res.FreeDead = r.freeDeadVerdict()
	return r.res
}

// flushCaches writes dirty L2 lines to DRAM; when invalidate is set the L1s
// and L2 are dropped as well (host-coherence points).
func (r *runner) flushCaches(invalidate bool) {
	r.l2.FlushTo(r.mem, r.cycle)
	if invalidate {
		r.l2.InvalidateAll()
		for _, sm := range r.sms {
			sm.L1D.InvalidateAll()
			sm.L1T.InvalidateAll()
		}
	}
}

type pendingCTA struct{ rep, cy, cx int }

// beginLaunch validates the launch and installs it as the in-flight launch
// state; runLaunch then advances it to completion.
func (r *runner) beginLaunch(l *device.Launch) error {
	prog := l.Kernel
	threads := l.ThreadsPerCTA()
	if threads == 0 || threads > r.cfg.MaxThreadsPerSM {
		return fmt.Errorf("launch %s: bad CTA size %d", l.Name(), threads)
	}
	rfNeed := threads * prog.NumRegs
	if rfNeed > r.cfg.RFRegsPerSM || l.SmemBytes > r.cfg.SmemPerSM {
		return fmt.Errorf("launch %s: CTA does not fit on an SM", l.Name())
	}

	cur := &launchState{launchScalars: launchScalars{l: l}}
	for rep := 0; rep < l.NumReplicas(); rep++ {
		for cy := 0; cy < l.GridY; cy++ {
			for cx := 0; cx < l.GridX; cx++ {
				cur.pending = append(cur.pending, pendingCTA{rep, cy, cx})
			}
		}
	}

	ks := r.kernelStats(l.Name())
	ks.Launches++
	cur.span = LaunchSpan{
		Kernel:        l.Name(),
		Start:         r.cycle,
		Threads:       int64(threads) * int64(l.NumCTAs()),
		RegsPerThread: prog.NumRegs,
		SmemPerCTA:    l.SmemBytes,
		CTAs:          int64(l.NumCTAs()),
	}
	cur.statsBase = r.snapshotStats()

	// Per-kernel-launch L1 state: Volta flushes L1s between kernels.
	for _, sm := range r.sms {
		sm.L1D.InvalidateAll()
		sm.L1T.InvalidateAll()
	}
	r.cur = cur
	return nil
}

// never is a cycle no run reaches: the wake-up time of an SM whose warps are
// all done or parked at a barrier, and the next grid cycle of a snapshot set
// that is absent or has stopped capturing.
const never = int64(1) << 62

// runLaunch advances the in-flight launch to completion. Simulated time is
// event-driven: machine state changes only when a CTA is placed, a hook
// fires or some SM issues, so after each executed ("stepped") cycle the loop
// asks nextEvent for the next cycle at which any of those is due and takes
// the idle cycles in between in one step — they would change nothing but the
// cycle counter and the occupancy sum, which are advanced here. Every kind
// of run (golden, checkpointing, resumed, converging, transient, persistent)
// goes through this one loop; under the test-only reference core no SM ever
// publishes nextReady, so there the same loop steps every cycle.
func (r *runner) runLaunch() error {
	cur := r.cur
	l := cur.l
	prog := l.Kernel
	// Looked up fresh (not cached in launchState): after a restore the stats
	// live in the rebuilt PerKernel map.
	ks := r.kernelStats(l.Name())

	// The next cycles on the two snapshot grids. Cycles only advance inside
	// launches, so a grid cycle at or before the current one has been served.
	ck, cv := r.opts.Checkpoint, r.opts.Converge
	ckDue, cvDue := ck.nextGrid(r.cycle), cv.nextGrid(r.cycle)

	for len(cur.pending) > 0 || cur.resident > 0 {
		// Place pending CTAs.
		for len(cur.pending) > 0 {
			placed := false
			for try := 0; try < len(r.sms); try++ {
				sm := r.sms[(cur.nextSM+try)%len(r.sms)]
				if r.tryPlace(sm, l, prog, &cur.pending[0]) {
					cur.nextSM = (cur.nextSM + try + 1) % len(r.sms)
					cur.pending = cur.pending[1:]
					cur.resident++
					placed = true
					break
				}
			}
			if !placed {
				break
			}
		}
		if cur.resident == 0 {
			return fmt.Errorf("launch %s: CTA cannot be placed on any SM", l.Name())
		}

		// One cycle.
		r.cycle++
		r.res.Stepped++
		if r.opts.AtCycle > 0 && !r.fired && r.cycle >= r.opts.AtCycle {
			r.fired = true
			if r.opts.OnCycle != nil {
				r.opts.OnCycle(r.machine())
				r.wakeSMs()
			}
		}
		if r.fired && r.opts.EachCycle != nil {
			r.opts.EachCycle(r.machine())
			r.wakeSMs()
		}
		if r.opts.MaxCycles > 0 && r.cycle > r.opts.MaxCycles {
			return errSimTimeout
		}

		retired := 0
		for _, sm := range r.sms {
			ks.OccupancySum += int64(sm.threadsUsed)
			if len(sm.ctas) == 0 {
				continue
			}
			var finished int
			var err error
			if cycleOracle != nil {
				finished, err = cycleOracle(r, sm, ks)
			} else {
				finished, err = r.cycleSM(sm, ks)
			}
			if err != nil {
				return err
			}
			retired += finished
		}
		cur.resident -= retired

		// End-of-cycle checkpoint hooks. Capture sees the state a resumed run
		// starts from; the convergence probe compares against it only after
		// the fault has been injected (before that the states match trivially).
		if r.cycle == ckDue {
			ck.offer(r)
			ckDue = ck.nextGrid(r.cycle) // offer may have widened the stride
		}
		if r.cycle == cvDue {
			cvDue = cv.nextGrid(r.cycle)
			if s := cv.at(r.cycle); r.fired && s != nil && r.matches(s) {
				if joinHook != nil {
					joinHook()
				}
				return errSimConverged
			}
		}

		// Jump over the idle cycles that follow, if any. Two cases must step
		// the next cycle although no resident SM can issue in it: the launch's
		// last CTA just retired (no SM is resident, the loop is about to end —
		// jumping would run the clock to the budget), and a retirement freed
		// room while CTAs are pending (the placement at the top of the next
		// cycle can now succeed, on an SM nextEvent does not look at).
		if cur.resident == 0 || (retired > 0 && len(cur.pending) > 0) {
			continue
		}
		if next := r.nextEvent(min(ckDue, cvDue)); next > r.cycle+1 && next < never {
			var resident int64
			for _, sm := range r.sms {
				resident += int64(sm.threadsUsed)
			}
			ks.OccupancySum += (next - 1 - r.cycle) * resident
			r.cycle = next - 1
		}
	}

	cur.span.End = r.cycle
	r.res.Spans = append(r.res.Spans, cur.span)
	ks.Cycles += cur.span.End - cur.span.Start
	r.accumulateStats(ks, cur.statsBase)
	r.cur = nil
	return nil
}

// nextEvent returns the earliest cycle after the current one that has to be
// stepped, given that no CTA can be placed before some SM issues: the first
// cycle at which a resident SM may issue again, the injection cycle while
// the hook has not fired, the first cycle over the budget (a run whose warps
// are all parked goes straight to its timeout), and gridDue, the next cycle
// a snapshot grid needs served. A result of at most cycle+1 means there is
// nothing to jump over; never means nothing is due at all (no budget, every
// warp parked), and the caller keeps stepping as it always has.
func (r *runner) nextEvent(gridDue int64) int64 {
	next := gridDue
	for _, sm := range r.sms {
		if len(sm.ctas) == 0 {
			continue
		}
		if sm.nextReady <= r.cycle+1 {
			// It issued this cycle, was woken by a hook, or wakes next cycle.
			return 0
		}
		next = min(next, sm.nextReady)
	}
	if r.opts.AtCycle > 0 && !r.fired {
		next = min(next, r.opts.AtCycle)
	}
	if r.opts.MaxCycles > 0 {
		next = min(next, r.opts.MaxCycles+1)
	}
	return next
}

// wakeSMs discards every SM's cached wake-up time. Injection hooks can
// mutate scheduler state behind the scan's back — a flipped ready-timestamp
// bit or a cleared done/barrier latch makes a warp issueable earlier than
// the cached floor — and a scheduler that rescans every cycle (the reference
// core in reference_test.go) reacts immediately; this one must too. After an
// EachCycle hook it also makes every SM rescan in the same cycle, so the
// times nextEvent reads describe the machine as the hook left it.
func (r *runner) wakeSMs() {
	for _, sm := range r.sms {
		sm.nextReady = 0
	}
}

// statsSnapshot captures global counters so per-kernel deltas can be formed.
type statsSnapshot struct {
	l1d, l1t, l2        mem.Stats
	dramRead, dramWrite int64
}

func (r *runner) snapshotStats() statsSnapshot {
	var s statsSnapshot
	for _, sm := range r.sms {
		addStats(&s.l1d, sm.L1D.Stats)
		addStats(&s.l1t, sm.L1T.Stats)
	}
	s.l2 = r.l2.Stats
	s.dramRead, s.dramWrite = r.dramRead, r.dramWrite
	return s
}

func addStats(dst *mem.Stats, s mem.Stats) {
	dst.Accesses += s.Accesses
	dst.Misses += s.Misses
	dst.PendingHits += s.PendingHits
	dst.ReservFails += s.ReservFails
}

func subStats(a, b mem.Stats) mem.Stats {
	return mem.Stats{
		Accesses:    a.Accesses - b.Accesses,
		Misses:      a.Misses - b.Misses,
		PendingHits: a.PendingHits - b.PendingHits,
		ReservFails: a.ReservFails - b.ReservFails,
	}
}

func (r *runner) accumulateStats(ks *KernelStats, base statsSnapshot) {
	now := r.snapshotStats()
	addStats(&ks.L1D, subStats(now.l1d, base.l1d))
	addStats(&ks.L1T, subStats(now.l1t, base.l1t))
	addStats(&ks.L2, subStats(now.l2, base.l2))
	ks.DRAMRead += now.dramRead - base.dramRead
	ks.DRAMWrite += now.dramWrite - base.dramWrite
}

func (r *runner) tryPlace(sm *SM, l *device.Launch, prog *isa.Program, p *pendingCTA) bool {
	threads := l.ThreadsPerCTA()
	if len(sm.ctas) >= r.cfg.MaxCTAsPerSM || sm.threadsUsed+threads > r.cfg.MaxThreadsPerSM {
		return false
	}
	rfBase, ok := sm.rfAlloc.alloc(threads * prog.NumRegs)
	if !ok {
		return false
	}
	smBase, ok := sm.smAlloc.alloc(l.SmemBytes)
	if !ok {
		sm.rfAlloc.release(rfBase, threads*prog.NumRegs)
		return false
	}
	cta := &ctaRT{
		CTA: uop.CTA{Launch: l, Params: l.ParamsFor(p.rep), X: p.cx, Y: p.cy},
		ctaScalars: ctaScalars{
			prog:    prog,
			rfBase:  rfBase,
			rfSize:  threads * prog.NumRegs,
			smBase:  smBase,
			smSize:  l.SmemBytes,
			threads: threads,
			schedID: r.schedNext,
		},
		uprog:  uop.Cached(prog),
		preds:  make([]uint8, threads),
		stored: r.storedWords(l),
	}
	cta.smTrack = cta.stored != nil || r.opts.SchedTrace != nil
	r.schedNext++
	nWarps := (threads + 31) / 32
	for w := 0; w < nWarps; w++ {
		lanes := threads - w*32
		if lanes > 32 {
			lanes = 32
		}
		cta.warps = append(cta.warps, exec.NewWarp(lanes))
	}
	cta.meta = make([]warpMeta, nWarps)
	cta.live = nWarps
	sm.ctas = append(sm.ctas, cta)
	sm.rebuildSlots()
	sm.nextReady = 0
	sm.threadsUsed += threads
	if tr := r.opts.SchedTrace; tr != nil {
		tr.OnCTAPlace(cta.schedID, sm.ID, cta.rfBase, cta.rfSize, cta.smBase, cta.smSize, cta.threads, prog, r.cycle)
	}
	return true
}

// joinHook is nil in every binary except this package's own test binary,
// where a test can count every join. Nothing outside _test files assigns
// it.
var joinHook func()

// cycleOracle is nil in every binary except this package's own test binary,
// where reference_test.go can point it at the reference core (the
// straightforward scheduler driving exec.Step) that the µop core is checked
// against. Nothing outside _test files assigns it.
var cycleOracle func(r *runner, sm *SM, ks *KernelStats) (int, error)

// cycleSM issues up to IssuePerCycle warp instructions on one SM and returns
// the number of CTAs that completed this cycle.
func (r *runner) cycleSM(sm *SM, ks *KernelStats) (int, error) {
	// Flattened warp slots for round-robin issue, rebuilt only when CTA
	// residency changes (placement, retirement, restore, reset).
	slots := sm.slots
	total := len(slots)
	if total == 0 {
		return 0, nil
	}
	if sm.nextReady > r.cycle {
		return 0, nil
	}
	// issuePtr may be stale past the table after a retirement shrank it; the
	// modulo is taken here (not written back) so snapshotted state matches
	// the reference scheduler bit for bit. The pointer is re-read after each
	// issue — the reference scan indexes off the *current* issuePtr, so a
	// second issue in the same cycle skips the slot right after the first.
	cur := sm.issuePtr % total
	issued := 0
	finished := 0
	for scan := 0; scan < total && issued < r.cfg.IssuePerCycle; scan++ {
		slot := cur + scan
		if slot >= total {
			slot -= total
		}
		sl := &slots[slot]
		cta, w, m := sl.cta, sl.w, sl.m
		if m.done || m.atBar || m.ready > r.cycle {
			continue
		}
		issued++
		sm.issuePtr = slot + 1
		if sm.issuePtr == total {
			sm.issuePtr = 0
		}
		cur = sm.issuePtr

		e := &r.env
		e.sm = sm
		e.cta = cta
		e.f = uop.Frame{
			Regs: sm.RF, Preds: cta.preds,
			RBase: cta.rfBase + w*32*cta.prog.NumRegs, Stride: cta.prog.NumRegs, TBase: w * 32,
			CTA: &cta.CTA,
		}
		e.lat = 0
		e.lines = e.lines[:0]
		if !sl.rfMarked {
			sm.markWarpRF(cta, w)
			sl.rfMarked = true
		}

		cp, wp := cta.uprog, cta.warps[w]
		pc, mask, st := cp.Issue(wp, &e.f)
		switch st {
		case uop.BadPC:
			return finished, &exec.ErrBadPC{PC: pc}
		case uop.Diverged:
			return finished, exec.ErrBarrierDivergence
		case uop.Data:
			// The one dispatch through the tables, spelled out: a helper
			// holding both indirect calls is over the inliner's budget.
			u := &cp.Ops[pc]
			if fn := uop.Fns[u.Kind]; fn != nil {
				fn(&e.f, u, mask)
			} else if fn := envFns[u.Kind]; fn != nil { // nil for KDrop
				if err := fn(e, u, mask); err != nil {
					return finished, err
				}
			}
			wp.Advance()
		}
		if tr := r.opts.SchedTrace; tr != nil && pc >= 0 { // pc -1: the warp had no lane left
			var a uint32
			if cp.Sel(pc) {
				a = cp.Ops[pc].PicksA(&e.f, mask)
			}
			tr.OnIssue(cta.schedID, w, int(pc), mask, a, r.cycle)
		}
		switch st {
		case uop.Exited:
			n := popcount(mask)
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
		case uop.Barrier:
			n := popcount(mask)
			ks.DynInstrs += int64(n)
			m.ready = r.cycle + int64(r.cfg.ALULat)
			m.atBar = true
			r.releaseBarrierIfReady(cta)
		default:
			// Class and counts come straight off the µop, no
			// architectural-instruction dereference.
			u := &cp.Ops[pc]
			n := int64(popcount(mask))
			ks.DynInstrs += n
			switch u.Kind {
			case uop.KLdg, uop.KLdt:
				ks.LoadInstrs += n
			case uop.KStg:
				ks.StoreInstrs += n
			case uop.KLds, uop.KSts:
				ks.SmemInstrs += n
			}
			m.ready = r.cycle + r.uopLatency(u)
		}
	}
	if issued == 0 {
		// Nothing could issue, so this scan changed no state; the earliest
		// cycle anything can change is the minimum wake-up among stalled
		// warps (barrier releases and retirements only happen on issue).
		next := never
		for i := range slots {
			m := slots[i].m
			if m.done || m.atBar {
				continue
			}
			if m.ready < next {
				next = m.ready
			}
		}
		sm.nextReady = next
	}
	return finished, nil
}

// uopLatency is the issue-to-ready latency of u, keyed on its pre-resolved
// class.
func (r *runner) uopLatency(u *uop.Op) int64 {
	switch u.Class {
	case uop.ClassSFU:
		return int64(r.cfg.SFULat)
	case uop.ClassSMem:
		return int64(r.cfg.SMemLat)
	case uop.ClassGMem:
		lat := r.env.lat
		if lat < int64(r.cfg.ALULat) {
			lat = int64(r.cfg.ALULat)
		}
		return lat
	default:
		return int64(r.cfg.ALULat)
	}
}

func (r *runner) releaseBarrierIfReady(cta *ctaRT) {
	for i := range cta.meta {
		if !cta.meta[i].done && !cta.meta[i].atBar {
			return
		}
	}
	if cta.live == 0 {
		return
	}
	for i := range cta.meta {
		if !cta.meta[i].done {
			cta.meta[i].atBar = false
			cta.warps[i].Advance()
		}
	}
}

func (r *runner) retireCTA(sm *SM, cta *ctaRT) {
	if tr := r.opts.SchedTrace; tr != nil {
		tr.OnCTARetire(cta.schedID, r.cycle)
	}
	sm.rfAlloc.release(cta.rfBase, cta.rfSize)
	sm.smAlloc.release(cta.smBase, cta.smSize)
	sm.threadsUsed -= cta.threads
	for i, c := range sm.ctas {
		if c == cta {
			sm.ctas = append(sm.ctas[:i], sm.ctas[i+1:]...)
			break
		}
	}
	sm.rebuildSlots()
	sm.nextReady = 0
	if len(sm.ctas) == 0 {
		sm.issuePtr = 0
	}
}

func popcount(m uint32) int { return bits.OnesCount32(m) }

// simEnv is the issuing warp's view of the SM's physical storage. The µop
// handlers index registers and predicates directly through the frame, read
// special registers and parameters through its CTA, and reach memory through
// the methods below.
type simEnv struct {
	r   *runner
	sm  *SM
	cta *ctaRT
	// f is filled once per issue: the SM's register file and the CTA's
	// predicate bytes, with the physical RF index of lane 0's register 0
	// (cta.rfBase + warp*32*stride) precomputed so register access needs one
	// multiply-free add per lane instead of the full affine index per access.
	f     uop.Frame
	lat   int64
	lines []uint32
}

func (e *simEnv) firstLine(addr uint32) bool {
	line := addr &^ (uint32(e.r.cfg.LineSize) - 1)
	for _, l := range e.lines {
		if l == line {
			return false
		}
	}
	e.lines = append(e.lines, line)
	return true
}

func (e *simEnv) LoadGlobal(lane int, addr uint32, tex bool) (uint32, error) {
	if !e.r.mem.Valid(addr, 4) {
		return 0, &device.AccessError{Addr: addr}
	}
	v, lat := e.sm.hier.Load(e.r.mem, addr, tex, e.firstLine(addr), e.r.cycle)
	if lat > e.lat {
		e.lat = lat
	}
	return v, nil
}

func (e *simEnv) StoreGlobal(lane int, addr uint32, v uint32) error {
	if !e.r.mem.Valid(addr, 4) {
		return &device.AccessError{Addr: addr, Write: true}
	}
	lat := e.sm.hier.Store(e.r.mem, addr, v, e.firstLine(addr), e.r.cycle)
	if lat > e.lat {
		e.lat = lat
	}
	return nil
}

func (e *simEnv) LoadShared(lane int, addr uint32) (uint32, error) {
	if addr%4 != 0 || int(addr)+4 > e.cta.smSize {
		return 0, fmt.Errorf("illegal shared memory read at 0x%x", addr)
	}
	if e.cta.smTrack {
		e.r.noteShared(e.cta, addr, false)
	}
	b := e.sm.Smem[e.cta.smBase+int(addr):]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

func (e *simEnv) StoreShared(lane int, addr uint32, v uint32) error {
	if addr%4 != 0 || int(addr)+4 > e.cta.smSize {
		return fmt.Errorf("illegal shared memory write at 0x%x", addr)
	}
	if e.cta.smTrack {
		e.r.noteShared(e.cta, addr, true)
	}
	if c := e.cta; !c.smMarked {
		e.sm.smem.Dirty().MarkSpan(c.smBase, c.smBase+c.smSize, smPageBytes)
		c.smMarked = true
	}
	b := e.sm.Smem[e.cta.smBase+int(addr):]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}
