// Golden wire tests for the fleet control-plane schema: the nested v1 lease
// request in testdata/ decodes and re-encodes as the envelope, the bare
// pre-v1 spelling is a negative fixture, and every message's envelope is
// mandatory.
package service_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpurel/internal/campaign"
	"gpurel/internal/service"
)

func loadFixture(t *testing.T, name string, v any) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestLeaseRequestGoldenFixtures: the nested fixture decodes, validates and
// re-encodes as the envelope; the bare fixture is rejected.
func TestLeaseRequestGoldenFixtures(t *testing.T) {
	var nested service.LeaseRequest
	loadFixture(t, "leasespec_nested.json", &nested)
	if nested.Worker != "w1" || nested.MaxRuns != 256 || nested.RunsPerSec != 42.5 {
		t.Errorf("decoded request %+v, want worker=w1 max_runs=256 runs_per_sec=42.5", nested)
	}
	if err := nested.Validate(); err != nil {
		t.Errorf("nested fixture invalid: %v", err)
	}
	out, err := json.Marshal(nested)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), `{"lease":`) {
		t.Errorf("re-encode lost the envelope: %s", out)
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "leasespec_legacy.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bare service.LeaseRequest
	if err := json.Unmarshal(raw, &bare); err == nil {
		t.Errorf("bare fixture decoded to %+v; the envelope is mandatory", bare)
	}
}

// TestLeaseRequestMixedSpellingRejected: anything beside the "lease"
// envelope — a bare field or an unknown one — is rejected, as is an unknown
// field inside it.
func TestLeaseRequestMixedSpellingRejected(t *testing.T) {
	var req service.LeaseRequest
	for _, body := range []string{
		`{"lease":{"worker":"w1"},"worker":"w2"}`,
		`{"lease":{"worker":"w1"},"bogus":1}`,
		`{"lease":{"worker":"w1","bogus":1}}`,
		`{}`,
	} {
		if err := json.Unmarshal([]byte(body), &req); err == nil {
			t.Errorf("%s accepted", body)
		}
	}
}

// TestLeaseReportBothSpellings: the report decoder accepts the envelope,
// rejects the bare body and anything beside the envelope, and re-encodes
// the envelope.
func TestLeaseReportBothSpellings(t *testing.T) {
	tl := campaign.Tally{N: 100}
	raw, _ := json.Marshal(tl)
	body := `{"worker":"w1","from":0,"to":100,"tally":` + string(raw) + `,"done":true}`

	var rep service.LeaseReport
	if err := json.Unmarshal([]byte(`{"report":`+body+`}`), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Worker != "w1" || rep.From != 0 || rep.To != 100 || rep.Tally != tl || !rep.Done {
		t.Errorf("decoded report %+v", rep)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), `{"report":`) {
		t.Errorf("re-encode lost the envelope: %s", out)
	}
	for _, bad := range []string{body, `{"report":{"worker":"w1"},"done":true}`} {
		if err := json.Unmarshal([]byte(bad), &rep); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

// TestLeaseEnvelopeRoundTrip: Lease and LeaseAck emit the v1 envelope,
// round-trip through it, and do not decode from a bare body.
func TestLeaseEnvelopeRoundTrip(t *testing.T) {
	ls := service.Lease{
		ID: "l1", JobID: "j1",
		Spec: service.JobSpec{Layer: "micro", App: "VA", Kernel: "K1", Runs: 100, Seed: 1},
		From: 0, To: 100, TTLSec: 15,
	}
	out, err := json.Marshal(ls)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), `{"lease":`) {
		t.Fatalf("lease encode = %s, want enveloped", out)
	}
	var back service.Lease
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ls) {
		t.Errorf("lease round trip drifted:\nbefore %+v\nafter  %+v", ls, back)
	}
	if err := json.Unmarshal([]byte(`{"id":"l2","job_id":"j2","spec":{"layer":"micro","app":"VA","kernel":"K1","runs":5},"from":0,"to":5,"ttl_sec":10}`), &back); err == nil {
		t.Error("bare lease decoded; the envelope is mandatory")
	}

	ack := service.LeaseAck{Accepted: true, TTLSec: 15}
	aout, err := json.Marshal(ack)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(aout), `{"ack":`) {
		t.Fatalf("ack encode = %s, want enveloped", aout)
	}
	var aback service.LeaseAck
	if err := json.Unmarshal(aout, &aback); err != nil {
		t.Fatal(err)
	}
	if aback != ack {
		t.Errorf("ack round trip drifted: %+v -> %+v", ack, aback)
	}
	if err := json.Unmarshal([]byte(`{"accepted":true,"ttl_sec":10}`), &aback); err == nil {
		t.Error("bare ack decoded; the envelope is mandatory")
	}
}

// TestWorkerSpecGoldenFixture: the registration envelope decodes, validates,
// and round-trips; the envelope is mandatory.
func TestWorkerSpecGoldenFixture(t *testing.T) {
	var spec service.WorkerSpec
	loadFixture(t, "workerspec.json", &spec)
	if spec.Name != "w1" || spec.Caps.RunsPerSec != 42.5 || spec.Caps.SnapMB != 256 {
		t.Errorf("decoded spec %+v", spec)
	}
	if !reflect.DeepEqual(spec.Caps.FaultModels, []string{"transient", "stuck"}) {
		t.Errorf("fault models = %v", spec.Caps.FaultModels)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("fixture invalid: %v", err)
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back service.WorkerSpec
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip drifted:\nbefore %+v\nafter  %+v", spec, back)
	}

	var bare service.WorkerSpec
	if err := json.Unmarshal([]byte(`{"name":"w1"}`), &bare); err == nil {
		t.Error("bare worker spec accepted; the envelope is mandatory")
	}
}

// TestWorkerSpecValidation enumerates the rejection cases.
func TestWorkerSpecValidation(t *testing.T) {
	for name, spec := range map[string]service.WorkerSpec{
		"missing name":  {Caps: service.WorkerCaps{RunsPerSec: 1}},
		"negative rps":  {Name: "w", Caps: service.WorkerCaps{RunsPerSec: -1}},
		"negative snap": {Name: "w", Caps: service.WorkerCaps{SnapMB: -1}},
		"unknown model": {Name: "w", Caps: service.WorkerCaps{FaultModels: []string{"cosmic"}}},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	ok := service.WorkerSpec{Name: "w", Caps: service.WorkerCaps{
		RunsPerSec: 10, SnapMB: 64, FaultModels: []string{"transient", "stuck", "mbu", "control"},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("full spec rejected: %v", err)
	}
}
