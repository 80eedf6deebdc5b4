package live

import (
	"math"
	"strings"
	"testing"
)

// event is one raw read or kill of a site.
type event struct {
	c    int64
	read bool
}

// decodeEvents turns fuzz input into per-site event streams at
// nondecreasing cycles. data[0] picks up to 39 sites (three groups); each
// following byte pair picks a site, read or kill, and the step to the
// event's cycle: small steps (often 0, so several events share a cycle),
// medium ones, and long gaps of 300·4^k cycles, whose encodings take two
// and three bytes. At most 96 events are read, and none past cycle 1<<15.
func decodeEvents(data []byte) (evs [][]event, end int64) {
	if len(data) == 0 {
		return nil, 0
	}
	evs = make([][]event, int(data[0])%40)
	if len(evs) == 0 {
		return evs, 0
	}
	for p := 1; p+1 < len(data) && p < 2*96 && end <= 1<<15; p += 2 {
		switch v := int64(data[p+1] >> 1); {
		case v < 64:
			end += v & 3
		case v < 124:
			end += v - 60
		default:
			end += 300 << (2 * (v - 124))
		}
		i := int(data[p]) % len(evs)
		evs[i] = append(evs[i], event{end, data[p+1]&1 == 1})
	}
	return evs, end
}

// FuzzSites holds the sealed record to a per-cycle reference computed from
// the raw events, in which a flip of a site at cycle c is live when the
// site's first event at or after c is a read. Live and the intervals Ivs
// returns agree with it at every cycle of the run and one past it,
// LiveCycles counts it over several ranges, and the record passes its own
// structural check.
func FuzzSites(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, end := decodeEvents(data)
		ts := make([]Track, len(evs))
		for i, es := range evs {
			for _, e := range es {
				if e.read {
					ts[i].Read(e.c)
				} else {
					ts[i].Kill(e.c)
				}
			}
		}
		s := Encode(ts)
		if s.Len() != len(evs) {
			t.Fatalf("Len %d, want %d", s.Len(), len(evs))
		}
		if err := s.Check(end); err != nil {
			t.Fatalf("Check: %v", err)
		}
		ranges := [][2]int64{{math.MinInt64, math.MaxInt64}, {0, end + 2}, {end / 3, 2*end/3 + 1}, {end / 2, end / 2}, {end, 1}}
		want := make([]int64, len(ranges))
		for i, es := range evs {
			ivs := s.Ivs(i, nil)
			j, k := 0, 0
			for c := int64(1); c <= end+1; c++ {
				for j < len(es) && es[j].c < c {
					j++
				}
				ref := j < len(es) && es[j].read
				for k < len(ivs) && ivs[k].Hi < c {
					k++
				}
				inIvs := k < len(ivs) && ivs[k].Lo < c
				if live := s.Live(i, c); live != ref || inIvs != ref {
					t.Fatalf("site %d cycle %d: Live %v, in Ivs %v, reference %v (events %v)", i, c, live, inIvs, ref, es)
				}
				for r, rg := range ranges {
					if ref && rg[0] <= c && c < rg[1] {
						want[r]++
					}
				}
			}
		}
		for r, rg := range ranges {
			if got := s.LiveCycles(rg[0], rg[1]); got != want[r] {
				t.Fatalf("LiveCycles%v = %d, reference %d", rg, got, want[r])
			}
		}
	})
}

// TestCheckRejects: the structural check names each kind of broken record.
func TestCheckRejects(t *testing.T) {
	for _, tc := range []struct {
		ivs  []Iv
		want string
	}{
		{[]Iv{{3, 3}}, "empty or inverted"},
		{[]Iv{{2, 5}, {4, 8}}, "overlap"},
		{[]Iv{{2, 5}, {6, 101}}, "escapes the run"},
	} {
		ts := make([]Track, 20)
		ts[17].ivs = tc.ivs
		s := Encode(ts)
		if err := s.Check(100); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "site 17") {
			t.Errorf("intervals %v: Check = %v, want site 17 %q", tc.ivs, err, tc.want)
		}
	}
}
