package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testPayload stands in for the three real payload structs.
type testPayload struct {
	Header
	Jobs  []string       `json:"jobs"`
	Stats map[string]int `json:"stats,omitempty"`
}

const testVersion = 1

// saved is what Save writes for one job "j1" at clock reading 7: the
// envelope first, then the payload's own fields, one-space indent — the
// layout every journal written before this package existed already has.
const saved = `{
 "version": 1,
 "saved_unix": 7,
 "jobs": [
  "j1"
 ]
}`

func TestLoad(t *testing.T) {
	for _, tc := range []struct {
		name     string
		content  *string // nil = no file
		wantJobs int
		wantErr  string // substring; "" = no error
	}{
		{name: "missing", content: nil},
		{name: "zero-length", content: ptr("")},
		{name: "truncated", content: ptr(saved[:len(saved)/2]), wantErr: "unexpected end of JSON input"},
		{name: "garbage", content: ptr("\x00\xffnot json"), wantErr: "invalid character"},
		{name: "whitespace only", content: ptr("\n"), wantErr: "unexpected end of JSON input"},
		{name: "wrong version", content: ptr(`{"version":99}`), wantErr: "version 99, want 1"},
		{name: "round-trip", content: ptr(saved), wantJobs: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.json")
			if tc.content != nil {
				if err := os.WriteFile(path, []byte(*tc.content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var p testPayload
			err := Load(path, testVersion, &p)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Load: %v", err)
				}
				if len(p.Jobs) != tc.wantJobs {
					t.Fatalf("loaded %d jobs, want %d", len(p.Jobs), tc.wantJobs)
				}
				return
			}
			// A damaged journal is a loud error naming the file, never an
			// empty journal.
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), path) {
				t.Fatalf("Load error = %v, want one naming %s and containing %q", err, path, tc.wantErr)
			}
		})
	}
}

// TestSaveRoundTrip: saving what was loaded reproduces the file byte for
// byte, leaves no temp file behind, and a second Save replaces the first.
func TestSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.json")
	if err := os.WriteFile(path, []byte(saved), 0o644); err != nil {
		t.Fatal(err)
	}
	var p testPayload
	if err := Load(path, testVersion, &p); err != nil {
		t.Fatal(err)
	}
	if p.SavedUnix != 7 {
		t.Fatalf("envelope not loaded: %+v", p.Header)
	}
	if err := Save(path, testVersion, 7, &p); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(saved)) {
		t.Fatalf("re-save changed the bytes:\n%s\nwant:\n%s", got, saved)
	}

	p.Jobs = append(p.Jobs, "j2")
	if err := Save(path, testVersion, 8, &p); err != nil {
		t.Fatal(err)
	}
	var back testPayload
	if err := Load(path, testVersion, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 2 || back.SavedUnix != 8 {
		t.Fatalf("second save not visible: %+v", back)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

// TestSaveMissingDir: a save that cannot happen is an error, and the
// previous journal — here: none — is left as it was.
func TestSaveMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "journal.json")
	if err := Save(path, testVersion, 1, &testPayload{}); err == nil {
		t.Fatal("Save into a missing directory succeeded")
	}
}

// TestFlushLoop: flush runs only while dirty, a failed flush is retried on
// the next tick without anyone re-raising the flag, and closing done stops
// the loop.
func TestFlushLoop(t *testing.T) {
	var dirty atomic.Bool
	var calls atomic.Int32
	flushed := make(chan struct{}, 8)
	flush := func() error {
		defer func() { flushed <- struct{}{} }()
		if calls.Add(1) == 1 {
			return os.ErrPermission
		}
		return nil
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		FlushLoop(done, time.Millisecond, &dirty, flush)
	}()

	dirty.Store(true)
	<-flushed                         // fails
	<-flushed                         // the retry; it succeeds, so the flag stays down
	time.Sleep(10 * time.Millisecond) // clean: several ticks, no flush
	if n := calls.Load(); n != 2 {
		t.Fatalf("flush ran %d times, want 2 (one failure, one retry)", n)
	}
	close(done)
	<-stopped
}

// FuzzJournalLoad: no file content makes Load panic; it either decodes to
// the wanted version or is an error.
func FuzzJournalLoad(f *testing.F) {
	f.Add([]byte(saved))
	f.Add([]byte(saved[:len(saved)/2]))
	f.Add([]byte(""))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"version":1,"jobs":{}}`))
	f.Add([]byte(`[1,2,3]`))
	path := filepath.Join(f.TempDir(), "journal.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var p testPayload
		if err := Load(path, testVersion, &p); err == nil && len(data) > 0 && p.Version != testVersion {
			t.Fatalf("Load accepted version %d from %q", p.Version, data)
		}
	})
}

func ptr(s string) *string { return &s }
