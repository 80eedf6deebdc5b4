package service

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func (h *Hub[E]) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// TestHubDropOldest: a subscriber that never reads loses its oldest events,
// never the newest — so a terminal event always lands — and an unsubscribed
// listener receives nothing more.
func TestHubDropOldest(t *testing.T) {
	hub := NewHub[int](4)
	slow, unsubSlow := hub.Subscribe()
	defer unsubSlow()
	gone, unsub := hub.Subscribe()
	unsub()

	const terminal = 100
	for ev := 1; ev <= terminal; ev++ {
		hub.Publish(ev)
	}
	var got []int
	for len(slow) > 0 {
		got = append(got, <-slow)
	}
	if want := []int{97, 98, 99, terminal}; !reflect.DeepEqual(got, want) {
		t.Errorf("never-reading subscriber holds %v, want the newest %v", got, want)
	}
	if len(gone) != 0 {
		t.Errorf("unsubscribed listener still received %d events", len(gone))
	}
	if n := hub.subscribers(); n != 1 {
		t.Errorf("hub has %d subscribers, want 1", n)
	}
}

// TestStreamClientStopsReading: a client that stops reading mid-stream never
// stalls the publisher, and once it hangs up the handler returns and its
// subscription is gone.
func TestStreamClientStopsReading(t *testing.T) {
	hub := NewHub[int](eventBuffer)
	returned := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		StreamNDJSON(w, r, nil, hub,
			func() (any, bool) { return "snapshot", true },
			func(n int) (any, bool) { return n, true })
	}))
	defer srv.Close()

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := bufio.NewReader(resp.Body)
	for _, want := range []string{"\"snapshot\"\n", "1\n"} {
		if want == "1\n" {
			hub.Publish(1)
		}
		if line, err := lines.ReadString('\n'); err != nil || line != want {
			t.Fatalf("stream line = %q, %v; want %q", line, err, want)
		}
	}
	if n := hub.subscribers(); n != 1 {
		t.Fatalf("%d subscribers while streaming, want 1", n)
	}

	// The client stops reading; the publisher keeps going, far past the
	// subscriber's buffer, without blocking.
	for ev := 2; ev < 2+4*eventBuffer; ev++ {
		hub.Publish(ev)
	}
	hangUp()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still running after the client hung up")
	}
	if n := hub.subscribers(); n != 0 {
		t.Errorf("%d subscribers after the handler returned, want 0", n)
	}
}
