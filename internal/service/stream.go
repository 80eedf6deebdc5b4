package service

import (
	"encoding/json"
	"net/http"
	"sync"
)

// Hub fans events out to subscribers. Publish never blocks the publisher: a
// subscriber whose buffer is full loses its oldest buffered event, so the
// newest — in particular a terminal one — always lands.
type Hub[E any] struct {
	buf  int
	mu   sync.Mutex
	subs map[chan E]struct{}
}

// NewHub returns a hub whose subscribers each buffer up to buf events. A
// hub of wake-ups (E = struct{}) wants buf 1: one pending wake-up is enough.
func NewHub[E any](buf int) *Hub[E] {
	return &Hub[E]{buf: buf, subs: map[chan E]struct{}{}}
}

// eventBuffer is how many progress events a job's stream may lag behind
// before it starts losing the oldest.
const eventBuffer = 64

// Subscribe attaches a listener; the returned func detaches it.
func (h *Hub[E]) Subscribe() (<-chan E, func()) {
	ch := make(chan E, h.buf)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}
}

// Publish delivers ev to every subscriber.
func (h *Hub[E]) Publish(ev E) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
			// Buffer full: drop the oldest event to make room. h.mu
			// serialises publishers, so the retry cannot race another
			// producer and always succeeds.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
	}
}

// StreamNDJSON serves one long-lived NDJSON response off a hub: the line
// first() returns — a snapshot, so late subscribers see where things stand —
// then the line next(ev) returns per published event, each flushed as it is
// written. The stream ends when the client hangs up, when drain closes (the
// daemon is shutting down: no terminal line is sent, clients reconnect or
// poll after the restart), or after a line reported with more == false.
func StreamNDJSON[E any](w http.ResponseWriter, r *http.Request, drain <-chan struct{}, hub *Hub[E],
	first func() (line any, more bool), next func(E) (line any, more bool)) {
	// Subscribe before the snapshot so no event between the two is missed.
	ch, unsub := hub.Subscribe()
	defer unsub()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	write := func(line any, more bool) bool {
		if err := enc.Encode(line); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return more
	}

	if !write(first()) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-drain:
			return
		case ev := <-ch:
			if !write(next(ev)) {
				return
			}
		}
	}
}
