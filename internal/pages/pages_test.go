package pages

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// snap is one save of the fuzzed array: its table and the full copy of the
// array the table must hold.
type snap struct {
	t    Table[Block]
	full []byte
}

// FuzzPages holds save, restore, compare and the retained-bytes count to a
// naive reference that copies the whole array at every save. The input
// picks the array length and page size (page counts that are not a
// multiple of 64, a short last page) and then a stream of operations on
// two arrays, as a checkpointed run uses the table: a recording array
// takes marked writes and saves, each re-basing it on the new table; a
// replaying array takes marked writes, restores of any table still held,
// each re-basing it on that table, and compares with any table held; and
// tables are dropped from the middle of the chain of saves. Its seed corpus
// is testdata/fuzz/FuzzPages.
func FuzzPages(f *testing.F) {
	// 65 bytes in pages of 10, the last one short. Two saves, the second
	// aliasing every page of the first; the replaying array restores the
	// first, writes page 0 and restores the second, whose page 0 is the
	// first's: a dirty page must be copied although the table aliases it.
	// Then it compares with the first, which it equals.
	f.Add([]byte{0x00, 0x40, 9, 1, 1, 4, 0, 3, 0, 5, 3, 7, 7, 7, 4, 1, 5, 0})
	// A write between two saves: the second must copy the dirty page, and
	// the chain retains the first save plus that one page.
	f.Add([]byte{0x00, 0x40, 9, 1, 0, 0, 5, 3, 7, 7, 7, 1, 4, 1, 5, 0})
	// The replaying array compares with a save after writing a page the
	// save aliases from its base.
	f.Add([]byte{0x00, 0x40, 9, 1, 1, 4, 1, 3, 0, 12, 1, 9, 5, 0, 5, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		n := 1 + int(binary.BigEndian.Uint16(in))%8192
		size := 1 + int(in[2])%300
		in = in[3:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b
		}
		write := func(a *Bytes) { // every byte it writes changes
			lo := (next()<<8 | next()) % n
			hi := min(lo+next(), n)
			for i := lo; i < hi; i++ {
				a.Data[i] ^= byte(next()) | 1
			}
			a.Dirty().MarkSpan(lo, hi, size)
		}
		rec, run := NewBytes(make([]byte, n), size), NewBytes(make([]byte, n), size)
		if got, want := rec.Dirty().Len(), (n+size-1)/size; got != want {
			t.Fatalf("%d bytes paged every %d: %d pages, want %d", n, size, got, want)
		}
		var chain []snap // the saves still held, oldest first
		var recBase, runBase Table[Block]
		for len(in) > 0 {
			switch op := next() % 6; op {
			case 0:
				write(&rec)
			case 1:
				st := Save(&rec, recBase)
				chain = append(chain, snap{st, bytes.Clone(rec.Data)})
				recBase = st
				rec.Dirty().Clear()
			case 2:
				if len(chain) > 0 {
					i := next() % len(chain)
					chain = append(chain[:i], chain[i+1:]...)
				}
			case 3:
				write(&run)
			case 4, 5: // restore a held table, or compare with it
				if len(chain) == 0 {
					break
				}
				s := chain[next()%len(chain)]
				if op == 4 {
					Load(&run, s.t, runBase)
					if !bytes.Equal(run.Data, s.full) {
						t.Fatal("a restore differs from the saved array")
					}
					runBase = s.t
					run.Dirty().Clear()
					break
				}
				p := Diff(&run, s.t, runBase)
				if equal := bytes.Equal(run.Data, s.full); equal != (p < 0) {
					t.Fatalf("compare says first differing page %d, the arrays are equal: %v", p, equal)
				}
				if p >= 0 && (bytes.Equal(run.page(p), s.full[p*size:min((p+1)*size, n)]) || !bytes.Equal(run.Data[:p*size], s.full[:p*size])) {
					t.Fatalf("page %d is not the first differing page", p)
				}
			}
		}
		// Every held table still holds what was saved, and the chain count
		// is the distinct-page count.
		var chained, distinct int64
		seen := map[*byte]bool{}
		var prev Table[Block]
		for _, s := range chain {
			var full []byte
			for _, pg := range s.t {
				b := pg.Bytes()
				full = append(full, b...)
				if !seen[&b[0]] {
					seen[&b[0]] = true
					distinct += int64(len(b))
				}
			}
			if !bytes.Equal(full, s.full) || s.t.Size() != int64(n) {
				t.Fatal("a saved table changed after its save")
			}
			chained += s.t.Fresh(prev)
			prev = s.t
		}
		if chained != distinct {
			t.Fatalf("the chain counts %d retained bytes, distinct pages hold %d", chained, distinct)
		}
	})
}

// TestBits covers the bitset at word boundaries: SetAll marks exactly the
// pages that exist, MarkSpan the pages a span touches and none for an
// empty span, Each lists them in order.
func TestBits(t *testing.T) {
	for _, n := range []int{2, 63, 64, 65, 130} {
		b := NewBits(n)
		var all []int
		b.Each(func(p int) { all = append(all, p) })
		if len(all) != n || all[n-1] != n-1 {
			t.Errorf("%d pages: a new bitset lists %v", n, all)
		}
		b.Clear()
		b.MarkSpan(3*(n-1)-1, 3*(n-1)+1, 3) // the last two pages of 3 elements
		b.MarkSpan(4, 4, 3)
		var got []int
		b.Each(func(p int) { got = append(got, p) })
		if len(got) != 2 || got[0] != n-2 || got[1] != n-1 {
			t.Errorf("%d pages: spans marked %v, want [%d %d]", n, got, n-2, n-1)
		}
	}
}
