package device

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"gpurel/internal/isa"
)

func TestAllocAlignmentAndBounds(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("a", 10)
	b := m.Alloc("b", 100)
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations must be 256-byte aligned: %#x %#x", a, b)
	}
	if a < NullGuard {
		t.Errorf("allocations must avoid the null guard page: %#x", a)
	}
	if b <= a {
		t.Error("allocator must move forward")
	}
}

func TestAllocOOMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-memory")
		}
	}()
	m := NewMemory(1 << 14)
	m.Alloc("big", 1<<14) // null guard + 16 KiB cannot fit in 16 KiB
}

func TestLoadStoreValidity(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("buf", 64)
	if err := m.Store4(a, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load4(a)
	if err != nil || v != 42 {
		t.Fatalf("roundtrip failed: %v %v", v, err)
	}
	// misaligned
	if _, err := m.Load4(a + 2); err == nil {
		t.Error("misaligned load must fail")
	}
	// out of any allocation
	if _, err := m.Load4(0); err == nil {
		t.Error("null load must fail")
	}
	if err := m.Store4(a+64, 1); err == nil {
		t.Error("store past the end of the buffer must fail")
	}
	// straddling the end
	if _, err := m.Load4(a + 62); err == nil {
		t.Error("load straddling the allocation must fail")
	}
	var ae *AccessError
	if err := m.Store4(0x10, 1); err != nil {
		var ok bool
		ae, ok = err.(*AccessError)
		if !ok || !ae.Write {
			t.Errorf("store error should be a write AccessError, got %v", err)
		}
	}
}

// TestValidAtTheEdges: the range test must not wrap. addr+n computed in
// uint32 turns the top word of the address space into [0xFFFFFFFC, 0), which
// lies "below the end" of every allocation; a wild address there has to be
// an AccessError like any other, not an index past the backing array. The
// other edge is the last byte of the last allocation.
func TestValidAtTheEdges(t *testing.T) {
	m := NewMemory(1 << 14)
	m.Alloc("a", 64)
	last := m.Alloc("last", 6)
	tiny := m.Alloc("tiny", 2)
	for _, c := range []struct {
		addr, n uint32
		want    bool
	}{
		{0xFFFFFFFC, 4, false},
		{0xFFFFFFFE, 2, false},
		{0xFFFFFFFF, 1, false},
		{last, 4, true},
		{last + 4, 2, true},
		{last + 5, 1, true},
		{last + 4, 4, false}, // starts inside, ends past the end
		{last + 6, 1, false},
		{last + 8, 4, false},
		{tiny, 2, true},
		{tiny, 4, false}, // an allocation smaller than the access
		{tiny - 4, 4, false},
	} {
		if got := m.Valid(c.addr, c.n); got != c.want {
			t.Errorf("Valid(%#x, %d) = %v, want %v", c.addr, c.n, got, c.want)
		}
	}
	var ae *AccessError
	if _, err := m.Load4(0xFFFFFFFC); !errors.As(err, &ae) || ae.Addr != 0xFFFFFFFC || ae.Write {
		t.Errorf("load of the top word: %v", err)
	}
	if err := m.Store4(0xFFFFFFFC, 1); !errors.As(err, &ae) || ae.Addr != 0xFFFFFFFC || !ae.Write {
		t.Errorf("store to the top word: %v", err)
	}
}

// scanValid is the allocation check as a linear scan of the table: the
// definition Valid's block lookup must agree with.
func scanValid(m *Memory, addr, n uint32) bool {
	if addr%n != 0 {
		return false
	}
	for i := range m.allocs {
		if m.allocs[i].holds(addr, n) {
			return true
		}
	}
	return false
}

// TestValidTableEqualsScan: the block table answers what a scan of the
// allocation table answers, at both ends of every allocation, in the gaps
// between them, across the null guard, at the top of the address space and
// at misaligned addresses — on a fresh memory, a replicated one and a
// footprint clone, and after the clone has allocated past the original.
func TestValidTableEqualsScan(t *testing.T) {
	m := NewMemory(1 << 16)
	for _, size := range []int{4, 256, 257, 1, 0, 510, 4096, 12} {
		m.Alloc("x", size)
	}
	r, _ := m.Replicate(3, 1024)
	r.Alloc("flag", 4)
	c := m.CloneFootprint(nil)
	c.Alloc("late", 8)
	probes := []uint32{0, 4, NullGuard - 4, NullGuard, NullGuard - 1, 0xFFFFFFFC, 0xFFFFFFFE, 0xFFFFFFFF, 0x7FFFFF00}
	for _, mem := range []*Memory{m, r, c} {
		for _, a := range mem.allocs {
			for _, d := range []uint32{0, 1, 2, 3, 4, 5, 6, 8, 252, 253, 254, 255, 256, 260} {
				probes = append(probes, a.Addr+d, a.Addr-d, a.Addr+a.Size-d, a.Addr+a.Size+d)
			}
		}
		probes = append(probes, mem.Used(), mem.Used()+256, uint32(mem.Size()), uint32(mem.Size())-4)
	}
	checked := 0
	for _, mem := range []*Memory{m, r, c} {
		for _, a := range probes {
			for _, n := range []uint32{1, 2, 4} {
				if got, want := mem.Valid(a, n), scanValid(mem, a, n); got != want {
					t.Errorf("Valid(%#x, %d) = %v, the scan says %v", a, n, got, want)
				}
				checked++
			}
		}
	}
	if !m.Valid(m.allocs[0].Addr, 4) || m.Valid(NullGuard-4, 4) || c.Valid(c.allocs[len(c.allocs)-1].Addr, 4) == m.Valid(c.allocs[len(c.allocs)-1].Addr, 4) {
		t.Errorf("the probes miss a case: first word, null guard, or the clone's own allocation")
	}
	t.Logf("%d checks", checked)
}

func TestSliceHelpersRoundtrip(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) > 1000 {
			vals = vals[:1000]
		}
		m := NewMemory(1 << 20)
		a := m.Alloc("v", 4*len(vals)+4)
		m.WriteU32s(a, vals)
		got := m.ReadU32s(a, len(vals))
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFloatHelpers(t *testing.T) {
	m := NewMemory(1 << 14)
	a := m.Alloc("f", 16)
	m.WriteF32s(a, []float32{1.5, -2.25})
	got := m.ReadF32s(a, 2)
	if got[0] != 1.5 || got[1] != -2.25 {
		t.Errorf("float roundtrip = %v", got)
	}
	m.WriteI32s(a, []int32{-7, 9})
	ig := m.ReadI32s(a, 2)
	if ig[0] != -7 || ig[1] != 9 {
		t.Errorf("int roundtrip = %v", ig)
	}
}

func TestClone(t *testing.T) {
	m := NewMemory(1 << 14)
	a := m.Alloc("x", 8)
	m.PokeU32(a, 1)
	c := m.CloneFootprint(nil)
	c.PokeU32(a, 2)
	if m.PeekU32(a) != 1 {
		t.Error("clone must not share storage")
	}
	if !c.Valid(a, 4) {
		t.Error("clone must keep the allocation table")
	}
}

func TestCloneFootprint(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("x", 8)
	b := m.Alloc("y", 5000) // the high-water mark lands mid-page
	m.PokeU32(a, 1)
	m.PokeU32(b+4996, 7)
	c := m.CloneFootprint(nil)
	if c.Size() != m.Footprint() || c.Size()%pageBytes != 0 || c.Size() < int(m.Used()) || c.Size()-int(m.Used()) >= pageBytes || c.Used() != m.Used() {
		t.Fatalf("footprint clone holds %d bytes, used %d: want the mark %d rounded up to a page", c.Size(), c.Used(), m.Used())
	}
	if c.PeekU32(a) != 1 || c.PeekU32(b+4996) != 7 {
		t.Error("footprint clone lost data")
	}
	c.PokeU32(a, 2)
	if m.PeekU32(a) != 1 {
		t.Error("footprint clone must not share storage")
	}
	// the same accesses fault on both: nothing above the mark is reachable
	for _, addr := range []uint32{0, a, b + 4996, b + 5000, m.Used() + 256, 1 << 15} {
		_, e1 := m.Load4(addr)
		_, e2 := c.Load4(addr)
		if (e1 == nil) != (e2 == nil) {
			t.Errorf("load at 0x%x: full image err %v, footprint err %v", addr, e1, e2)
		}
		if (m.Store4(addr, 9) == nil) != (c.Store4(addr, 9) == nil) {
			t.Errorf("store at 0x%x: full and footprint images disagree", addr)
		}
	}
	// a recycled copy of the right size is reused and fully overwritten
	c.ClearPageDirty()
	if d := m.CloneFootprint(c); d != c || d.PeekU32(a) != m.PeekU32(a) || d.PeekU32(b+4996) != m.PeekU32(b+4996) {
		t.Error("CloneFootprint must refill a same-sized dst in place")
	}
	n := 0
	c.DirtyPages(func(lo, hi uint32) { n++ })
	if n != c.img.Dirty().Len() {
		t.Errorf("a refilled copy has %d of %d pages dirty, want all", n, c.img.Dirty().Len())
	}
	if d := m.CloneFootprint(NewMemory(1 << 12)); d.Size() != m.Footprint() {
		t.Errorf("a wrong-sized dst gave a %d-byte copy", d.Size())
	}
	// an image allocated to the brim is copied whole
	full := NewMemory(3*pageBytes + 100)
	full.Alloc("all", full.Size()-NullGuard)
	if got := full.CloneFootprint(nil).Size(); got != full.Size() {
		t.Errorf("full image: footprint copy of %d bytes, want %d", got, full.Size())
	}
}

func TestDirtyPages(t *testing.T) {
	// allocated to the brim of a capacity that ends mid-page
	m := NewMemory(NullGuard + 3*pageBytes + 100)
	a := m.Alloc("x", 3*pageBytes+100)
	c := m.CloneFootprint(nil)
	pages := func() (out [][2]uint32) {
		c.DirtyPages(func(lo, hi uint32) { out = append(out, [2]uint32{lo, hi}) })
		return out
	}
	if got := pages(); len(got) != c.img.Dirty().Len() || got[len(got)-1][1] != c.Used() {
		t.Fatalf("a fresh clone is dirty everywhere, up to the last partial page: %v", got)
	}
	c.ClearPageDirty()
	if got := pages(); got != nil {
		t.Fatalf("after ClearPageDirty: %v", got)
	}
	last := c.Used() - 4
	c.PokeU32(a, 1)
	if err := c.Store4(last, 2); err != nil {
		t.Fatal(err)
	}
	want := [][2]uint32{
		{a / pageBytes * pageBytes, a/pageBytes*pageBytes + pageBytes},
		{last / pageBytes * pageBytes, c.Used()},
	}
	got := pages()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("dirty pages %v, want %v", got, want)
	}
}

func TestReplicate(t *testing.T) {
	m := NewMemory(1 << 14)
	a := m.Alloc("x", 8)
	m.PokeU32(a, 0xAB)
	r, stride := m.Replicate(3, 1024)
	if stride%256 != 0 {
		t.Errorf("stride must stay aligned: %d", stride)
	}
	for c := uint32(0); c < 3; c++ {
		if r.PeekU32(a+c*stride) != 0xAB {
			t.Errorf("copy %d missing data", c)
		}
		if !r.Valid(a+c*stride, 4) {
			t.Errorf("copy %d missing allocation", c)
		}
	}
	// extra headroom must be allocatable
	f := r.Alloc("flag", 4)
	if !r.Valid(f, 4) {
		t.Error("post-replication allocation invalid")
	}
	// copies must be independent
	r.PokeU32(a, 1)
	if r.PeekU32(a+stride) != 0xAB {
		t.Error("copies must not alias")
	}
}

func TestJobHelpers(t *testing.T) {
	m := NewMemory(1 << 14)
	a := m.Alloc("out", 8)
	m.PokeU32(a, 7)
	m.PokeU32(a+4, 8)
	prog := &isa.Program{Name: "k", NumRegs: 1, Code: []isa.Instr{{Op: isa.OpEXIT}}}
	j := &Job{
		Mem: m,
		Steps: []Step{
			{Launch: &Launch{Kernel: prog, KernelName: "K1", GridX: 1, GridY: 1, BlockX: 1, BlockY: 1}},
			{Launch: &Launch{Kernel: prog, KernelName: "K2", GridX: 1, GridY: 1, BlockX: 1, BlockY: 1}},
			{Launch: &Launch{Kernel: prog, KernelName: "K1", GridX: 1, GridY: 1, BlockX: 1, BlockY: 1}},
		},
		Outputs: []Output{{Name: "out", Addr: a, Size: 8}},
	}
	names := j.KernelNames()
	if len(names) != 2 || names[0] != "K1" || names[1] != "K2" {
		t.Errorf("KernelNames = %v", names)
	}
	out := j.ReadOutputs(m)
	want := []byte{7, 0, 0, 0, 8, 0, 0, 0}
	if !bytes.Equal(out, want) {
		t.Errorf("ReadOutputs = %v", out)
	}
	if j.MaxScheduleSteps() < len(j.Steps) {
		t.Error("default step budget too small")
	}
}

func TestLaunchReplicaParams(t *testing.T) {
	l := &Launch{Params: []uint32{1, 2}}
	if l.NumReplicas() != 1 {
		t.Error("default replicas = 1")
	}
	if got := l.ParamsFor(0); got[0] != 1 {
		t.Error("ParamsFor(0) must return Params when not replicated")
	}
	l.Replicas = 3
	l.ReplicaParams = [][]uint32{{1}, {2}, {3}}
	if l.NumReplicas() != 3 || l.ParamsFor(2)[0] != 3 {
		t.Error("replica params not resolved")
	}
	l.GridX, l.GridY, l.BlockX, l.BlockY = 2, 2, 8, 4
	if l.ThreadsPerCTA() != 32 || l.NumCTAs() != 12 {
		t.Errorf("geometry: threads=%d ctas=%d", l.ThreadsPerCTA(), l.NumCTAs())
	}
}
