// Tests of the control-plane spine as the two subsystems use it together:
// journals written before internal/journal existed re-save to the same
// bytes, empty journal files start clean and damaged ones refuse to start,
// and every POST route refuses an oversize body.
package fleet_test

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

// TestPreRemovalJournalsResaveByteIdentical: the scheduler checkpoint and
// fleet journal written at a99b403 load, and flushing the restored state
// reproduces them byte for byte — modulo saved_unix, the only field that is
// the saving process's clock rather than state.
func TestPreRemovalJournalsResaveByteIdentical(t *testing.T) {
	dir := t.TempDir()
	want := map[string][]byte{}
	for _, name := range []string{krSchedFile, krFleetFile} {
		data, err := os.ReadFile(filepath.Join("testdata", "pre-removal", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}

	// Restore re-arms every lease at now+TTL; pick the clock so that lands
	// on the journaled deadline. Tickers are parked: only the explicit
	// Flush calls below write.
	const ttl = time.Minute
	now := func() time.Time { return time.Unix(1790611580, 0).Add(-ttl) }
	schedCfg, coordCfg := killResumeConfigs(dir, 0)
	schedCfg.Now, schedCfg.CheckpointInterval = now, time.Hour
	coordCfg.Now, coordCfg.FlushInterval = now, time.Hour
	coordCfg.LeaseTTL, coordCfg.Sweep = ttl, time.Hour
	sched, err := service.NewScheduler(schedCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	coord, err := fleet.NewCoordinator(sched, coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Kill)

	// Resumed jobs re-enter as queued and flip to running once their lane
	// picks them up — the state they were journaled in.
	deadline := time.Now().Add(10 * time.Second)
	for running := 0; running < 2; {
		running = 0
		for _, st := range sched.List() {
			if st.State == service.StateRunning {
				running++
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("restored jobs never resumed: %+v", sched.List())
		}
		time.Sleep(time.Millisecond)
	}
	if err := sched.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}

	savedUnix := regexp.MustCompile(`"saved_unix": \d+`)
	for name, old := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := savedUnix.ReplaceAll(got, nil), savedUnix.ReplaceAll(old, nil); string(g) != string(w) {
			t.Errorf("%s re-saved differently:\n%s\nwant:\n%s", name, got, old)
		}
	}
}

// TestEmptyAndDamagedJournalFiles: a zero-length journal file (a crash
// between create and first write, `touch`, a truncating copy) is an empty
// journal for both subsystems; a damaged one is a start-up error naming
// the file, never silently dropped state.
func TestEmptyAndDamagedJournalFiles(t *testing.T) {
	for _, tc := range []struct {
		name, content string
		wantErr       bool
	}{
		{"zero-length", "", false},
		{"truncated", `{"version": 1, "saved_unix": 7, "jobs": [`, true},
		{"garbage", "\x00\x01 not a journal", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.json")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(subsystem string, err error) {
				t.Helper()
				switch {
				case !tc.wantErr && err != nil:
					t.Errorf("%s refused a %s journal: %v", subsystem, tc.name, err)
				case tc.wantErr && (err == nil || !strings.Contains(err.Error(), path)):
					t.Errorf("%s on a %s journal: err = %v, want an error naming %s", subsystem, tc.name, err, path)
				}
			}

			sched, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true, CheckpointPath: path})
			check("NewScheduler", err)
			if err == nil {
				defer sched.Close()
			}
			backlog, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true})
			if err != nil {
				t.Fatal(err)
			}
			defer backlog.Close()
			coord, err := fleet.NewCoordinator(backlog, fleet.CoordinatorConfig{JournalPath: path})
			check("NewCoordinator", err)
			if err == nil {
				defer coord.Close()
			}
		})
	}
}

// TestOversizeBodyRefused: every POST route family — jobs (campaign and
// advise specs alike), leases, workers — refuses a body over
// service.MaxBodyBytes with 413 and the v1 error envelope, before decoding
// any of it.
func TestOversizeBodyRefused(t *testing.T) {
	sched, coord, srv := harness(t, service.Config{Source: synthSource(0), DisableLocalExec: true}, fleet.CoordinatorConfig{})

	pad := strings.Repeat("x", service.MaxBodyBytes)
	body := `{"pad":"` + pad + `"}`
	for _, tc := range []struct{ route, body string }{
		{"/v1/jobs", body},
		{"/v1/jobs", `{"advise":{"app":"` + pad + `","budget":0.1},"runs":10}`},
		{"/v1/leases", body},
		{"/v1/leases/l0/report", body},
		{"/v1/workers", body},
	} {
		route := tc.route
		resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", route, err)
		}
		var env service.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != service.ErrCodeBadRequest ||
			!strings.Contains(env.Error.Message, "request body too large") {
			t.Errorf("POST %s: HTTP %d, envelope %+v (%v); want 413 bad_request \"request body too large\"",
				route, resp.StatusCode, env.Error, err)
		}
	}
	if n := len(sched.List()); n != 0 {
		t.Errorf("oversize bodies created %d jobs", n)
	}
	if fs := coord.FleetStatus(); len(fs.Workers) != 0 || fs.Leases.Granted != 0 {
		t.Errorf("oversize bodies reached the registry or the lease ledger: %+v", fs)
	}
}
