// Golden wire-format tests: the nested v1 job spec in testdata/ decodes to
// the expected campaign point and re-encodes byte-identically; the flat
// pre-v1 spelling is a negative fixture — rejected like any unknown field.
package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpurel/internal/service"
)

func loadSpec(t *testing.T, name string) service.JobSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var sp service.JobSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sp
}

// postFixture submits a testdata file to path and returns the status code
// and the decoded error envelope (zero on 2xx).
func postFixture(t *testing.T, url, name string) (int, service.ErrorEnvelope) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env service.ErrorEnvelope
	if resp.StatusCode >= 300 {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: undecodable error body: %v", name, err)
		}
	}
	return resp.StatusCode, env
}

// TestGoldenWireFixtures: the nested fixture validates and resolves to the
// expected campaign point; the flat fixture does not decode, and submitting
// it is a 400 bad_request naming the offending field.
func TestGoldenWireFixtures(t *testing.T) {
	nested := loadSpec(t, "jobspec_nested.json")
	if err := nested.Validate(); err != nil {
		t.Errorf("nested fixture invalid: %v", err)
	}
	p, err := nested.Point()
	if err != nil {
		t.Fatal(err)
	}
	if p.Sampling == nil || p.Sampling.Margin != 0.025 || p.Sampling.Batch != 250 {
		t.Errorf("sampling policy lost in decode: %+v", p.Sampling)
	}
	if nested.Sampling == nil || !nested.Sampling.Prune {
		t.Errorf("sampling.prune no longer decodes: %+v", nested.Sampling)
	}
	if p.Checkpoint == nil || p.Checkpoint.Stride != 500 || p.Checkpoint.BudgetBytes != 64<<20 || !p.Checkpoint.Converge {
		t.Errorf("checkpoint spec lost in decode: %+v", p.Checkpoint)
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "jobspec_legacy.json"))
	if err != nil {
		t.Fatal(err)
	}
	var flat service.JobSpec
	if err := json.Unmarshal(raw, &flat); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("flat fixture decode err = %v, want an unknown-field rejection", err)
	}
	_, srv := newTestServer(t, service.Config{Source: fakeSource(0)})
	code, env := postFixture(t, srv.URL+"/v1/jobs", "jobspec_legacy.json")
	if code != http.StatusBadRequest || env.Error.Code != service.ErrCodeBadRequest {
		t.Errorf("flat fixture -> %d %+v, want 400 %s", code, env, service.ErrCodeBadRequest)
	}
	if !strings.Contains(env.Error.Message, "margin99") {
		t.Errorf("rejection does not name the flat field: %q", env.Error.Message)
	}
}

// TestWireRoundTripEncodesNested: every accepted fixture re-encodes to the
// document it was read from — one spelling in, the same spelling out, no
// field dropped or invented — and encoding is a byte-stable fixed point.
func TestWireRoundTripEncodesNested(t *testing.T) {
	fixtures := map[string]func() any{
		"jobspec_nested.json":        func() any { return new(service.JobSpec) },
		"jobspec_fault.json":         func() any { return new(service.JobSpec) },
		"jobspec_fault_control.json": func() any { return new(service.JobSpec) },
		"jobspec_harden.json":        func() any { return new(service.JobSpec) },
		"leasespec_nested.json":      func() any { return new(service.LeaseRequest) },
		"workerspec.json":            func() any { return new(service.WorkerSpec) },
	}
	for name, alloc := range fixtures {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		v := alloc()
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var want, got any
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s re-encodes to a different document: %s", name, out)
		}
		back := alloc()
		if err := json.Unmarshal(out, back); err != nil {
			t.Fatalf("%s re-decode: %v", name, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, out) {
			t.Errorf("%s encoding is not a fixed point:\nfirst  %s\nsecond %s", name, out, again)
		}
	}
}
