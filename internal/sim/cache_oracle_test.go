package sim

import (
	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
)

// The cache data oracle. The reference core reaches global memory through
// its Env's LoadGlobal / StoreGlobal, one lane at a time (oracleEnv). Around
// each access cacheData reads the caches' lines — which frame holds the
// accessed line before and after, and whether the frame a fill took held a
// dirty line — and derives the access's data events from those states
// alone: a hit reads the word a load covers, a store overwrites the word in
// L1D (on a hit) and in L2, a fill kills its whole frame, a fill into a
// dirty L2 frame first writes the old line back (a read), and an L1 fill
// reads the whole L2 line it copies. Flushes are found from the L2's dirty
// bits: a frame that held a dirty line after its last access and holds none
// when the next launch places a CTA, or when the run ends, was written back
// in the flush at the end of the launch before. Nothing here calls the
// record mem.FrameLog keeps, so the two must agree.

// cacheOracle, when set, receives every global access of the reference
// core. It is assigned by traceCacheOracle only.
var cacheOracle *cacheData

// cacheData is the oracle's record: one site per data word, frame-major.
type cacheData struct {
	cfg      gpu.Config
	words    int
	l1d, l1t [][]oracleSite // [sm]
	l2       []oracleSite
	l2Dirty  []bool     // whether each L2 frame held a dirty line after its last access
	l2c      *mem.Cache // the run's L2, from the first access on
	before   []bool     // scratch: which ways of the accessed L2 set held a dirty line
}

func traceCacheOracle(job *device.Job, cfg gpu.Config) (*cacheData, *Result) {
	o := &cacheData{cfg: cfg, words: cfg.LineSize / 4}
	for i := 0; i < cfg.NumSMs; i++ {
		o.l1d = append(o.l1d, make([]oracleSite, cfg.L1DBytes/4))
		o.l1t = append(o.l1t, make([]oracleSite, cfg.L1TBytes/4))
	}
	o.l2 = make([]oracleSite, cfg.L2Bytes/4)
	o.l2Dirty = make([]bool, cfg.L2Bytes/cfg.LineSize)
	cacheOracle = o
	defer func() { cacheOracle = nil }()
	var res *Result
	onReference(func() { res = Run(job, cfg, Options{SchedTrace: o}) })
	o.flushed(res.Cycles)
	return o, res
}

// find returns the frame of c, with the given associativity, that holds
// the line at lineAddr, or -1.
func find(c *mem.Cache, ways int, lineAddr uint32) int {
	set := int(lineAddr/c.LineSize()) % (c.NumLines() / ways)
	for i := set * ways; i < (set+1)*ways; i++ {
		if ln := c.LineAt(i); ln.Valid && ln.Addr == lineAddr {
			return i
		}
	}
	return -1
}

// frame applies one event at the cycle to every word of frame f of sites.
func (o *cacheData) frame(sites []oracleSite, f int, write bool, cycle int64) {
	for w := f * o.words; w < (f+1)*o.words; w++ {
		sites[w].note(write, cycle)
	}
}

// access runs do, one global access of a lane on SM sm, and applies the
// cache events it made.
func (o *cacheData) access(sm *SM, l2 *mem.Cache, addr uint32, tex, store bool, cycle int64, do func() error) error {
	o.l2c = l2
	l1, l1Sites := sm.L1D, o.l1d[sm.ID]
	if tex {
		l1, l1Sites = sm.L1T, o.l1t[sm.ID]
	}
	line := addr &^ uint32(o.cfg.LineSize-1)
	word := int(addr-line) / 4
	l1Hit, l2Hit := find(l1, o.cfg.L1Ways, line), find(l2, o.cfg.L2Ways, line)
	base := int(line/l2.LineSize()) % (l2.NumLines() / o.cfg.L2Ways) * o.cfg.L2Ways
	o.before = o.before[:0]
	for i := base; i < base+o.cfg.L2Ways; i++ {
		ln := l2.LineAt(i)
		o.before = append(o.before, ln.Valid && ln.Dirty)
	}
	if err := do(); err != nil {
		return err
	}
	switch {
	case l1Hit >= 0:
		l1Sites[l1Hit*o.words+word].note(store, cycle)
	case !store:
		o.frame(l1Sites, find(l1, o.cfg.L1Ways, line), true, cycle)
	}
	if !store && l1Hit >= 0 {
		return nil
	}
	f := l2Hit
	if f < 0 {
		f = find(l2, o.cfg.L2Ways, line)
		if o.before[f-base] {
			o.frame(o.l2, f, false, cycle)
		}
		o.frame(o.l2, f, true, cycle)
	}
	if store {
		o.l2[f*o.words+word].note(true, cycle)
	} else {
		o.frame(o.l2, f, false, cycle)
	}
	o.l2Dirty[f] = l2.LineAt(f).Dirty
	return nil
}

// flushed reads every L2 frame whose dirty line a flush at the cycle wrote
// back.
func (o *cacheData) flushed(cycle int64) {
	if o.l2c == nil {
		return
	}
	for f, dirty := range o.l2Dirty {
		if dirty && !o.l2c.LineAt(f).Dirty {
			o.frame(o.l2, f, false, cycle)
			o.l2Dirty[f] = false
		}
	}
}

// OnCTAPlace finds the flushes of the host steps before a launch.
func (o *cacheData) OnCTAPlace(cta, sm, rfBase, rfSize, smBase, smSize, threads int, prog *isa.Program, cycle int64) {
	o.flushed(cycle)
}

func (o *cacheData) OnIssue(cta, warp, pc int, mask, selA uint32, cycle int64) {}
func (o *cacheData) OnShared(cta, word int, store bool, cycle int64)           {}
func (o *cacheData) OnCTARetire(cta int, cycle int64)                          {}

// sites returns the oracle's words of structure st (L1D, L1T or L2) on SM
// sm (0 for L2).
func (o *cacheData) sites(st gpu.Structure, sm int) []oracleSite {
	switch st {
	case gpu.L1D:
		return o.l1d[sm]
	case gpu.L1T:
		return o.l1t[sm]
	}
	return o.l2
}

// Live reports whether a flip of byte off of frame f at the cycle reaches a
// read.
func (o *cacheData) Live(st gpu.Structure, sm, f int, off uint32, cycle int64) bool {
	return o.sites(st, sm)[f*o.words+int(off/4)].live(cycle)
}

// Edges returns the cycles at which the liveness of a flip into word w of
// frame f changes: each live interval's lo and hi.
func (o *cacheData) Edges(st gpu.Structure, sm, f, w int) []int64 {
	var out []int64
	for _, v := range o.sites(st, sm)[f*o.words+w].ivs {
		out = append(out, v.lo, v.hi)
	}
	return out
}

// LiveByteCycles sums, over every byte of the cache, the cycles at which a
// flip there reaches a read.
func (o *cacheData) LiveByteCycles(st gpu.Structure, sm int) int64 {
	var n int64
	for _, s := range o.sites(st, sm) {
		for _, v := range s.ivs {
			n += 4 * (v.hi - v.lo)
		}
	}
	return n
}

func (e oracleEnv) LoadGlobal(lane int, addr uint32, tex bool) (uint32, error) {
	if cacheOracle == nil {
		return e.simEnv.LoadGlobal(lane, addr, tex)
	}
	var v uint32
	err := cacheOracle.access(e.sm, e.r.l2, addr, tex, false, e.r.cycle, func() (err error) {
		v, err = e.simEnv.LoadGlobal(lane, addr, tex)
		return err
	})
	return v, err
}

func (e oracleEnv) StoreGlobal(lane int, addr uint32, v uint32) error {
	if cacheOracle == nil {
		return e.simEnv.StoreGlobal(lane, addr, v)
	}
	return cacheOracle.access(e.sm, e.r.l2, addr, false, true, e.r.cycle, func() error {
		return e.simEnv.StoreGlobal(lane, addr, v)
	})
}
