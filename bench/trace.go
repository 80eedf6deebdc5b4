package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program under test are a later issue). Times are
// nanoseconds since the recorder was made. Parent is the index of the span
// that caused this one, -1 for a root. ID ties the spans of one run or job
// together.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     int64  `json:"id"`
}

// recorder holds spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span and returns its index for use as a parent.
func (r *recorder) add(name, layer string, start, end int64, parent int32, id int64) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name, layer, start, end, parent, id})
	i := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return i
}

// open reserves a span whose end is not known yet; close it with end.
func (r *recorder) open(name, layer string, parent int32, id int64) int32 {
	if r == nil {
		return -1
	}
	return r.add(name, layer, r.now(), 0, parent, id)
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[i].End = t
	r.mu.Unlock()
}

func (r *recorder) rename(i int32, name string) {
	r.mu.Lock()
	r.spans[i].Name = name
	r.mu.Unlock()
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns per-name aggregates and per-layer self time (span
// duration minus the part its direct children cover).
func (r *recorder) selfTimes() ([]nameStat, map[string]time.Duration) {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byName := map[string]*nameStat{}
	layers := map[string]time.Duration{}
	for i, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &nameStat{Name: s.Name, Layer: s.Layer}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(self[i]) / 1e6
		layers[s.Layer] += time.Duration(self[i])
	}
	out := make([]nameStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out, layers
}
