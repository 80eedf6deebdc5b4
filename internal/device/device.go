// Package device models the GPU device side visible to the host: global
// memory with an allocation table (the basis for illegal-access DUE
// detection), kernel launch descriptors, and multi-kernel jobs with host
// steps in between — the moral equivalent of a CUDA host program.
package device

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"gpurel/internal/isa"
	"gpurel/internal/pages"
)

// NullGuard is the size of the unmapped region at address zero; accesses
// below it always fault, catching null-pointer dereferences from corrupted
// address registers.
const NullGuard = 0x1000

// Alloc records one device allocation.
type Alloc struct {
	Name string
	Addr uint32
	Size uint32
}

// pageBytes is the copy-on-write snapshot page size. Device memory dwarfs
// every other array in a machine snapshot, so the checkpoint engine tracks
// writes per page and shares untouched pages between consecutive snapshots.
const pageBytes = 4096

// Memory is the device global memory image plus its allocation table.
// Accesses outside an allocation (or misaligned) produce errors that the
// simulators classify as DUEs.
type Memory struct {
	// img is the image, paged for copy-on-write snapshots: its dirty bit p
	// set means page p may have diverged from the provenance snapshot the
	// checkpoint engine last synced against. Every mutating accessor marks
	// the pages it touches; Raw marks all of them (the caller can write
	// anywhere).
	img    pages.Bytes
	next   uint32
	allocs []Alloc
	// owner names, per 256-byte block of [0, next), the one allocation that
	// may hold it (an index into allocs), or -1. Allocations are 256-byte
	// aligned, so no two share a block, and an n-aligned access with n ≤ 256
	// never crosses one: Valid is one lookup and one range test. Entries are
	// only ever appended, so copies share the slice read-only, capped at
	// their length.
	owner []int32
	// dirty tracks whether any (potentially) mutating access happened since
	// the last ResetDirty. The timing simulator brackets host steps with it
	// to decide whether GPU caches must be invalidated afterward: read-only
	// host access (D2H) leaves them warm.
	dirty bool
}

// NewMemory creates a device memory of the given capacity in bytes.
func NewMemory(capacity int) *Memory {
	return &Memory{img: pages.NewBytes(make([]byte, capacity), pageBytes), next: NullGuard}
}

// markPages records a write to [addr, addr+n): the host dirty flag and the
// snapshot page bits.
func (m *Memory) markPages(addr, n uint32) {
	m.dirty = true
	m.img.Dirty().MarkSpan(int(addr), min(int(addr)+int(n), m.Size()), pageBytes)
}

// ClearPageDirty clears the per-page snapshot bits (not the host dirty
// flag). Only the checkpoint engine calls it, at provenance sync points.
func (m *Memory) ClearPageDirty() { m.img.Dirty().Clear() }

// Alloc reserves size bytes (zeroed) and returns the device address.
// Allocations are 256-byte aligned like cudaMalloc.
func (m *Memory) Alloc(name string, size int) uint32 {
	const align = 256
	addr := (m.next + align - 1) &^ uint32(align-1)
	if int(addr)+size > len(m.img.Data) {
		panic(fmt.Sprintf("device: out of memory allocating %q (%d bytes)", name, size))
	}
	m.addAlloc(Alloc{Name: name, Addr: addr, Size: uint32(size)})
	m.next = addr + uint32(size)
	return addr
}

// addAlloc appends a to the allocation table and its blocks to owner. a
// starts on a 256-byte boundary at or above every earlier allocation's end.
func (m *Memory) addAlloc(a Alloc) {
	for len(m.owner) < int(a.Addr>>8) {
		m.owner = append(m.owner, -1)
	}
	for b := a.Addr >> 8; b < (a.Addr+a.Size+255)>>8; b++ {
		m.owner = append(m.owner, int32(len(m.allocs)))
	}
	m.allocs = append(m.allocs, a)
}

// Allocs returns the allocation table.
func (m *Memory) Allocs() []Alloc { return m.allocs }

// Size returns the capacity of the memory in bytes.
func (m *Memory) Size() int { return len(m.img.Data) }

// Used returns the high-water mark of allocated memory.
func (m *Memory) Used() uint32 { return m.next }

// Footprint returns the size of a run's copy of the image: the allocation
// high-water mark rounded up to a whole snapshot page, capped at capacity.
// Every checked access above Used() is rejected by the allocation table and
// host steps stay inside allocations, so a run never touches the bytes
// dropped. A page is a whole number of cache lines, so a cache fill of the
// line holding the last allocated byte stays inside the copy.
func (m *Memory) Footprint() int {
	return min((int(m.next)+pageBytes-1)/pageBytes*pageBytes, len(m.img.Data))
}

// CloneFootprint deep-copies the first Footprint() bytes of the image into
// dst, reusing dst's backing array when it already has that size (the run
// pool recycles memories this way); a nil or differently sized dst gets a
// fresh copy. Every executor starts its runs from such a copy. The copy
// cannot take further allocations.
func (m *Memory) CloneFootprint(dst *Memory) *Memory {
	n := m.Footprint()
	if dst == nil || dst.Size() != n {
		dst = &Memory{img: pages.NewBytes(make([]byte, n), pageBytes)}
	}
	copy(dst.img.Data, m.img.Data)
	dst.next = m.next
	dst.allocs = append(dst.allocs[:0], m.allocs...)
	dst.owner = m.owner[:len(m.owner):len(m.owner)]
	dst.img.Dirty().SetAll()
	return dst
}

// DirtyPages calls fn with the byte range [lo, hi) of every page written
// since the last ClearPageDirty, in address order.
func (m *Memory) DirtyPages(fn func(lo, hi uint32)) {
	m.img.Dirty().Each(func(p int) {
		lo := p * pageBytes
		fn(uint32(lo), uint32(min(lo+pageBytes, m.Size())))
	})
}

// PagedState is a structurally shared snapshot of a Memory: pages untouched
// since the previous snapshot alias the previous snapshot's pages instead
// of being copied. Immutable once saved; the zero state is no base.
type PagedState struct {
	pages  pages.Table[pages.Block]
	next   uint32
	allocs []Alloc
	owner  []int32
}

// Pages exposes the saved pages for retained-byte accounting. Callers must
// treat them as read-only. A nil state has none.
func (st *PagedState) Pages() pages.Table[pages.Block] {
	if st == nil {
		return nil
	}
	return st.pages
}

// StateBytes returns the standalone (sharing-ignored) size of the state.
func (st *PagedState) StateBytes() int64 {
	return st.pages.Size() + int64(len(st.allocs))*24
}

// SavePaged snapshots the memory into st, sharing the pages whose dirty bit
// is clear with prev, the provenance base the bits are relative to (a nil
// or zero prev copies everything). Dirty bits are left untouched; the
// caller clears them when it re-bases its provenance on the new snapshot.
func (m *Memory) SavePaged(st, prev *PagedState) {
	st.pages = pages.Save(&m.img, prev.Pages())
	st.next = m.next
	st.allocs = append([]Alloc(nil), m.allocs...)
	st.owner = m.owner[:len(m.owner):len(m.owner)]
}

// LoadPaged restores st into the memory, skipping the pages base, the
// provenance base of the dirty bits, proves already in place. The caller
// re-bases provenance afterwards.
func (m *Memory) LoadPaged(st, base *PagedState) {
	if len(st.pages) != m.img.Dirty().Len() {
		panic(fmt.Sprintf("device: LoadPaged page-count mismatch: %d pages, snapshot has %d", m.img.Dirty().Len(), len(st.pages)))
	}
	pages.Load(&m.img, st.pages, base.Pages())
	m.next = st.next
	m.allocs = append(m.allocs[:0], st.allocs...)
	m.owner = st.owner
}

// PagedEqual reports whether the memory's current state equals st, skipping
// the pages in place as LoadPaged does.
func (m *Memory) PagedEqual(st, base *PagedState) bool {
	return m.next == st.next && slices.Equal(m.allocs, st.allocs) &&
		len(st.pages) == m.img.Dirty().Len() && pages.Diff(&m.img, st.pages, base.Pages()) < 0
}

// Replicate builds a new memory holding `copies` replicas of this memory's
// allocated image at a fixed stride, plus extra bytes of headroom for
// additional allocations. It returns the new memory and the replica stride:
// an address a of copy 0 maps to a + c*stride in copy c. The allocation
// table is replicated so validity checks accept every copy.
func (m *Memory) Replicate(copies, extra int) (*Memory, uint32) {
	const align = 256
	stride := (m.next + align - 1) &^ uint32(align-1)
	capacity := int(stride)*copies + extra
	n := NewMemory(capacity)
	n.next = stride*uint32(copies-1) + m.next
	for c := 0; c < copies; c++ {
		off := uint32(c) * stride
		copy(n.img.Data[off:], m.img.Data[:m.next])
		for _, a := range m.allocs {
			n.addAlloc(Alloc{
				Name: fmt.Sprintf("%s#%d", a.Name, c),
				Addr: a.Addr + off,
				Size: a.Size,
			})
		}
	}
	return n, stride
}

// AccessError describes an illegal device memory access.
type AccessError struct {
	Addr  uint32
	Write bool
}

func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("illegal global memory %s at 0x%x", kind, e.Addr)
}

// Valid reports whether [addr, addr+n) lies inside some allocation and is
// n-aligned; n is a power of two no larger than 256.
func (m *Memory) Valid(addr uint32, n uint32) bool {
	if addr%n != 0 || int(addr>>8) >= len(m.owner) {
		return false
	}
	i := m.owner[addr>>8]
	return i >= 0 && m.allocs[i].holds(addr, n)
}

// holds reports whether [addr, addr+n) lies inside the allocation. The test
// is on the offset, never on addr+n, which wraps to the bottom of the
// address space for the top word and would pass for every allocation; an
// addr below a.Addr wraps the offset past any Size instead.
func (a *Alloc) holds(addr, n uint32) bool {
	off := addr - a.Addr
	return off < a.Size && a.Size-off >= n
}

// Load4 reads a 4-byte word, checking validity.
func (m *Memory) Load4(addr uint32) (uint32, error) {
	if !m.Valid(addr, 4) {
		return 0, &AccessError{Addr: addr}
	}
	return binary.LittleEndian.Uint32(m.img.Data[addr:]), nil
}

// Store4 writes a 4-byte word, checking validity.
func (m *Memory) Store4(addr uint32, v uint32) error {
	if !m.Valid(addr, 4) {
		return &AccessError{Addr: addr, Write: true}
	}
	m.markPages(addr, 4)
	binary.LittleEndian.PutUint32(m.img.Data[addr:], v)
	return nil
}

// Raw exposes the backing bytes for direct host-step access. Callers must
// stay in bounds. The returned slice is mutable, so taking it counts as a
// write to every page for dirty tracking; code on the simulator's hot path
// (cache fills and writebacks) uses PeekBytes/WriteAt instead, which track
// precisely.
func (m *Memory) Raw() []byte {
	m.dirty = true
	m.img.Dirty().SetAll()
	return m.img.Data
}

// PeekBytes returns a read-only view of [addr, addr+n) without touching the
// write-tracking state. Mutating the returned slice corrupts snapshot
// provenance; writers must use WriteAt or Raw.
func (m *Memory) PeekBytes(addr, n uint32) []byte {
	return m.img.Data[addr : addr+n]
}

// WriteAt copies b into the memory at addr with precise write tracking (the
// cache model's line-writeback path).
func (m *Memory) WriteAt(addr uint32, b []byte) {
	m.markPages(addr, uint32(len(b)))
	copy(m.img.Data[addr:], b)
}

// ResetDirty clears the write-tracking flag; Dirty reports whether any
// possibly-mutating access happened since.
func (m *Memory) ResetDirty() { m.dirty = false }

// Dirty reports whether the memory may have been written since ResetDirty.
func (m *Memory) Dirty() bool { return m.dirty }

// PeekU32 reads a word without validity checking (host-side access).
func (m *Memory) PeekU32(addr uint32) uint32 {
	return binary.LittleEndian.Uint32(m.img.Data[addr:])
}

// PokeU32 writes a word without validity checking (host-side access).
func (m *Memory) PokeU32(addr uint32, v uint32) {
	m.markPages(addr, 4)
	binary.LittleEndian.PutUint32(m.img.Data[addr:], v)
}

// PeekF32 reads a float32 (host-side).
func (m *Memory) PeekF32(addr uint32) float32 {
	return math.Float32frombits(m.PeekU32(addr))
}

// PokeF32 writes a float32 (host-side).
func (m *Memory) PokeF32(addr uint32, v float32) {
	m.PokeU32(addr, math.Float32bits(v))
}

// WriteU32s copies a word slice to device memory at addr.
func (m *Memory) WriteU32s(addr uint32, vals []uint32) {
	for i, v := range vals {
		m.PokeU32(addr+uint32(4*i), v)
	}
}

// ReadU32s copies n words from device memory at addr.
func (m *Memory) ReadU32s(addr uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.PeekU32(addr + uint32(4*i))
	}
	return out
}

// WriteF32s copies a float slice to device memory at addr.
func (m *Memory) WriteF32s(addr uint32, vals []float32) {
	for i, v := range vals {
		m.PokeF32(addr+uint32(4*i), v)
	}
}

// ReadF32s copies n floats from device memory at addr.
func (m *Memory) ReadF32s(addr uint32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = m.PeekF32(addr + uint32(4*i))
	}
	return out
}

// WriteI32s copies an int slice to device memory at addr.
func (m *Memory) WriteI32s(addr uint32, vals []int32) {
	for i, v := range vals {
		m.PokeU32(addr+uint32(4*i), uint32(v))
	}
}

// ReadI32s copies n ints from device memory at addr.
func (m *Memory) ReadI32s(addr uint32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(m.PeekU32(addr + uint32(4*i)))
	}
	return out
}

// Launch describes one kernel launch. When Replicas > 1 (TMR hardening) the
// grid is replicated and each replica r executes with Params resolved through
// ReplicaParams[r]; replica 0 uses Params itself when ReplicaParams is nil.
type Launch struct {
	Kernel     *isa.Program
	KernelName string // defaults to Kernel.Name
	GridX      int
	GridY      int
	BlockX     int
	BlockY     int
	SmemBytes  int

	Params []uint32
	// ParamIsPtr marks parameter words that are device pointers; the TMR
	// transform rebases these per replica.
	ParamIsPtr []bool

	Replicas      int        // 0 or 1 = no replication
	ReplicaParams [][]uint32 // length Replicas when replicated
}

// Name returns the kernel name used for per-kernel campaigns.
func (l *Launch) Name() string {
	if l.KernelName != "" {
		return l.KernelName
	}
	return l.Kernel.Name
}

// NumReplicas normalises Replicas.
func (l *Launch) NumReplicas() int {
	if l.Replicas <= 1 {
		return 1
	}
	return l.Replicas
}

// ParamsFor returns the parameter bank for replica r.
func (l *Launch) ParamsFor(r int) []uint32 {
	if l.ReplicaParams != nil {
		return l.ReplicaParams[r]
	}
	return l.Params
}

// ThreadsPerCTA returns the CTA size in threads.
func (l *Launch) ThreadsPerCTA() int { return l.BlockX * l.BlockY }

// NumCTAs returns the total CTA count including replicas.
func (l *Launch) NumCTAs() int { return l.GridX * l.GridY * l.NumReplicas() }

// Step is one element of a job schedule: either a kernel launch or a host
// step. Host steps model CPU-side code between kernels (reductions of
// partial sums, convergence checks); they are never fault-injected. A host
// step receives the device-buffer offset of the data copy it operates on
// (always 0 for unhardened jobs; the TMR transform invokes it once per
// replica with that replica's offset) and returns the index of the next
// step to run, or -1 to continue with the following step — this supports
// data-dependent kernel loops like BFS.
type Step struct {
	Launch *Launch
	Host   func(m *Memory, off uint32) int
}

// Output names a device buffer whose final contents define program output
// for SDC classification.
type Output struct {
	Name string
	Addr uint32
	Size uint32 // bytes
}

// Job is a complete application run: pristine memory image, schedule, and
// output buffers.
type Job struct {
	Name    string
	Mem     *Memory
	Steps   []Step
	Outputs []Output
	// MaxSteps bounds schedule execution (host-step loops under faults may
	// never converge); exceeding it classifies the run as a Timeout. Zero
	// means 4× the schedule length.
	MaxSteps int
	// DUEFlag, when nonzero, is the address of a word that the application
	// sets to signal a detected unrecoverable error (the TMR voter writes it
	// on three-way disagreement). A nonzero value at job end classifies the
	// run as a DUE.
	DUEFlag uint32
}

// MaxScheduleSteps returns the effective schedule-step budget.
func (j *Job) MaxScheduleSteps() int {
	if j.MaxSteps > 0 {
		return j.MaxSteps
	}
	n := 4 * len(j.Steps)
	if n < 16 {
		n = 16
	}
	return n
}

// KernelNames returns the distinct kernel names in schedule order.
func (j *Job) KernelNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range j.Steps {
		if s.Launch == nil {
			continue
		}
		n := s.Launch.Name()
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	return names
}

// ReadOutputs concatenates the bytes of all output buffers from m, in
// declaration order. Two runs produced the same output iff these byte slices
// are equal.
func (j *Job) ReadOutputs(m *Memory) []byte {
	var total int
	for _, o := range j.Outputs {
		total += int(o.Size)
	}
	out := make([]byte, 0, total)
	for _, o := range j.Outputs {
		out = append(out, m.PeekBytes(o.Addr, o.Size)...)
	}
	return out
}
