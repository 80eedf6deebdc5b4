// Package journal is the daemon's one way of making control-plane state
// durable: a whole-file JSON journal, rewritten atomically on every save.
// The scheduler's job checkpoint, the advisor's advise journal and the fleet
// coordinator's lease journal are three payload structs over it, so the
// durability discipline — envelope, version guard, what a missing, empty or
// damaged file means, how a write survives a crash — lives here and nowhere
// else.
//
// On disk a journal is one indented JSON object whose first two fields are
// the envelope, followed by the payload's own fields:
//
//	{"version": 1, "saved_unix": 1700000000, ...payload}
//
// The package never reads the wall clock: saved_unix is the caller's
// injected clock reading.
package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Header is the envelope. A payload struct embeds it as its first field, so
// encoding/json flattens version and saved_unix ahead of the payload's own
// fields.
type Header struct {
	Version   int   `json:"version"`
	SavedUnix int64 `json:"saved_unix"`
}

func (h *Header) header() *Header { return h }

// Payload is a pointer to a struct embedding Header.
type Payload interface{ header() *Header }

// Load reads the journal at path into p. A missing or zero-length file is an
// empty journal: p is left as it was and the error is nil. Anything else that
// does not decode to the wanted version — truncated, garbage, written by an
// incompatible build — is an error naming the path; state is never dropped
// silently.
func Load(path string, version int, p Payload) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) || err == nil && len(data) == 0 {
		return nil
	}
	if err != nil {
		return err // an *os.PathError: names the path already
	}
	if err := json.Unmarshal(data, p); err != nil {
		return fmt.Errorf("journal %s: %w", path, err)
	}
	if got := p.header().Version; got != version {
		return fmt.Errorf("journal %s: version %d, want %d", path, got, version)
	}
	return nil
}

// Save stamps p's envelope and replaces the journal at path with it. The
// write goes to a temp file in the same directory, is fsynced, renamed over
// the old journal, and the directory is fsynced — so a crash or power loss at
// any point leaves either the previous journal or the new one, whole.
func Save(path string, version int, savedUnix int64, p Payload) error {
	*p.header() = Header{Version: version, SavedUnix: savedUnix}
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return fmt.Errorf("journal %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".gpureld-ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename is only durable once the directory entry is on disk.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// FlushLoop is the flush policy of a subsystem that journals on a ticker:
// until done closes, every interval it calls flush if dirty was raised since
// the last flush. A failed flush re-raises dirty so the next tick retries.
// Subsystems that journal synchronously per unit of work call their flush
// directly instead.
func FlushLoop(done <-chan struct{}, every time.Duration, dirty *atomic.Bool, flush func() error) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if dirty.Swap(false) && flush() != nil {
				dirty.Store(true)
			}
		}
	}
}
