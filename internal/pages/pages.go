// Package pages is the copy-on-write page table every machine array is
// snapshotted through: device memory, register files, shared memories and
// cache sets.
//
// An array is divided into pages, and a dirty bitset says which pages may
// have changed since the provenance base, the saved table the array was last
// synced against. The one rule is that a page whose bit is clear equals the
// base's page. So a save copies only the dirty pages and aliases the rest
// from the base, and a restore or a compare skips a page that is clean and
// that the target table aliases from the base: its content is already in
// place. Consecutive saves of a long run then cost what was written between
// them, not the size of the array, and a page aliased along a chain of saves
// is retained once.
package pages

import (
	"bytes"
	"math/bits"
	"unsafe"
)

// Bits is the dirty bitset of an array of n pages: bit p set means page p
// may differ from the provenance base's page p.
type Bits struct {
	w []uint64
	n int
}

// NewBits returns the bitset of n pages, every page marked: a new array has
// no base.
func NewBits(n int) Bits {
	b := Bits{w: make([]uint64, (n+63)/64), n: n}
	b.SetAll()
	return b
}

// Len returns the number of pages.
func (b *Bits) Len() int { return b.n }

// Mark marks page p.
func (b *Bits) Mark(p int) { b.w[p>>6] |= 1 << (p & 63) }

// MarkSpan marks the pages holding elements [lo, hi) of an array paged
// every size elements; hi must not pass the array's end.
func (b *Bits) MarkSpan(lo, hi, size int) {
	for p := lo / size; lo < hi; p, lo = p+1, (p+1)*size {
		b.Mark(p)
	}
}

// Has reports whether page p is marked.
func (b *Bits) Has(p int) bool { return b.w[p>>6]&(1<<(p&63)) != 0 }

// SetAll marks every page.
func (b *Bits) SetAll() {
	for i := range b.w {
		b.w[i] = ^uint64(0)
	}
	if r := b.n & 63; r != 0 {
		b.w[len(b.w)-1] = 1<<r - 1
	}
}

// Clear unmarks every page: the array has just been synced with its base.
func (b *Bits) Clear() { clear(b.w) }

// Each calls fn with every marked page, in ascending order.
func (b *Bits) Each(fn func(p int)) {
	for i, w := range b.w {
		for ; w != 0; w &= w - 1 {
			fn(i<<6 | bits.TrailingZeros64(w))
		}
	}
}

// Page is the handle of one saved page, which tables copy and compare by
// value: a page is saved once and afterwards only aliased, so two handles
// are equal exactly when they are one page. Size is the bytes it retains.
type Page interface {
	comparable
	Size() int64
}

// Array is a live paged array as a table sees it: its dirty bits, and a
// copy out of, a copy into and a compare against one page.
type Array[P Page] interface {
	Dirty() *Bits
	Save(p int) P
	Load(p int, pg P)
	Equal(p int, pg P) bool
}

// Table is the saved copy of an array, one page per entry. An empty table
// is no base: a save against it copies every page, and a restore or a
// compare against it skips none.
type Table[P Page] []P

// Save returns a table of a's current content. A page whose bit is clear
// is base's page, aliased; base must be the provenance base of a's bits.
// The bits are left as they are: the caller clears them when it re-bases
// the array on the new table.
func Save[P Page](a Array[P], base Table[P]) Table[P] {
	d := a.Dirty()
	t := make(Table[P], d.Len())
	for p := range t {
		if len(base) > 0 && !d.Has(p) {
			t[p] = base[p]
		} else {
			t[p] = a.Save(p)
		}
	}
	return t
}

// Load restores t into a, skipping the pages already in place. base is the
// provenance base of a's bits.
func Load[P Page](a Array[P], t, base Table[P]) {
	d := a.Dirty()
	for p, pg := range t {
		if !inPlace(d, p, pg, base) {
			a.Load(p, pg)
		}
	}
}

// Diff returns the first page where a differs from t, or -1 when a equals
// t. It skips the pages already in place; base is the provenance base of
// a's bits.
func Diff[P Page](a Array[P], t, base Table[P]) int {
	d := a.Dirty()
	for p, pg := range t {
		if !inPlace(d, p, pg, base) && !a.Equal(p, pg) {
			return p
		}
	}
	return -1
}

// inPlace reports whether page p of a live array with bits d holds pg
// already: p is clean, so it equals base's page, and pg is base's page.
func inPlace[P Page](d *Bits, p int, pg P, base Table[P]) bool {
	return len(base) > 0 && !d.Has(p) && pg == base[p]
}

// Unmarked returns the first clean page of a live array with bits d that
// does not equal base's page by equal, or -1. With sound marking it is
// always -1: it is the oracle a test audits the bits with.
func Unmarked[P Page](d *Bits, base Table[P], equal func(p int, pg P) bool) int {
	for p, pg := range base {
		if !d.Has(p) && !equal(p, pg) {
			return p
		}
	}
	return -1
}

// Size returns the bytes of every page of t, sharing ignored.
func (t Table[P]) Size() int64 {
	var n int64
	for _, pg := range t {
		n += pg.Size()
	}
	return n
}

// Fresh returns the bytes of the pages of t that are not prev's page at the
// same index: what t adds to a chain of tables whose last is prev. A save
// aliases only its base's page at the same index, so the tables holding
// one page form a run of consecutive saves; counting each table against
// the one before it in a chain counts every page once, also when tables
// are dropped from the middle of the chain.
func (t Table[P]) Fresh(prev Table[P]) int64 {
	var n int64
	for p, pg := range t {
		if p >= len(prev) || pg != prev[p] {
			n += pg.Size()
		}
	}
	return n
}

// Block is the handle of a saved page of a byte array: its first byte and
// its length. A handle rather than a slice, so that a table compares pages
// with ==, which a restore or a join does for every clean page.
type Block struct {
	p *byte
	n int
}

// Bytes returns the saved bytes. Callers must treat them as read-only.
func (b Block) Bytes() []byte { return unsafe.Slice(b.p, b.n) }

// Size returns the length of the block.
func (b Block) Size() int64 { return int64(b.n) }

// Bytes is a live byte array paged every size bytes, the last page possibly
// short.
type Bytes struct {
	Data  []byte
	size  int
	dirty Bits
}

// NewBytes pages data every size bytes, every page marked.
func NewBytes(data []byte, size int) Bytes {
	return Bytes{Data: data, size: size, dirty: NewBits((len(data) + size - 1) / size)}
}

// Words views a word array as the bytes it is stored in, so that a register
// file pages, copies and compares as a byte array.
func Words(w []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 4*len(w))
}

// Dirty returns the array's bitset.
func (a *Bytes) Dirty() *Bits { return &a.dirty }

// page returns the bytes of page p.
func (a *Bytes) page(p int) []byte {
	lo := p * a.size
	return a.Data[lo:min(lo+a.size, len(a.Data))]
}

// Save returns a copy of page p.
func (a *Bytes) Save(p int) Block {
	c := append([]byte(nil), a.page(p)...)
	return Block{&c[0], len(c)}
}

// Load copies pg into page p.
func (a *Bytes) Load(p int, pg Block) { copy(a.page(p), pg.Bytes()) }

// Equal reports whether page p holds pg.
func (a *Bytes) Equal(p int, pg Block) bool { return bytes.Equal(a.page(p), pg.Bytes()) }
