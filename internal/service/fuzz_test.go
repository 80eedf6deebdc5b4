// Fuzz coverage for the v1 decoders. The job-spec targets are centred on the
// nested fault{...} and advise{...} groups: no input may panic the decoder,
// and every spec that decodes and validates must survive an encode/decode
// round trip with its campaign point — and its fault model — or its advise
// question intact.
package service_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"gpurel/internal/service"
)

func FuzzJobSpecDecode(f *testing.F) {
	seeds := []string{
		`{"layer":"micro","app":"VA","kernel":"K1","runs":10,"seed":1}`,
		`{"layer":"micro","app":"VA","kernel":"K1","runs":10,"fault":{"model":"stuck","stuck":0}}`,
		`{"layer":"micro","app":"VA","kernel":"K1","runs":10,"fault":{"model":"mbu","width":2,"lines":2}}`,
		`{"layer":"micro","app":"VA","kernel":"K1","runs":10,"structure":"SCHED","fault":{"model":"control"}}`,
		`{"layer":"micro","app":"VA","kernel":"K1","runs":10,"structure":"BARRIER","fault":{"model":"control","stuck":1}}`,
		`{"layer":"micro","app":"VA","kernel":"K1","runs":10,"fault":{"model":"transient","width":3}}`,
		`{"layer":"micro","app":"VA","kernel":"K1","runs":10,"fault":{"model":"cosmic"}}`,
		`{"layer":"micro","app":"VA","kernel":"K1","runs":10,"fault":{"stuck":2}}`,
		`{"layer":"soft","app":"VA","kernel":"K1","runs":10,"fault":{"model":"stuck","stuck":0}}`,
		`{"layer":"micro","app":"VA","kernel":"K1","runs":10,"margin99":0.05,"sampling":{"margin99":0.05}}`,
		`{"fault":{"model":"","width":-1,"lines":99}}`,
		`{"fault":null}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp service.JobSpec
		if err := json.Unmarshal(data, &sp); err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if err := sp.Validate(); err != nil {
			return // rejected specs need no further guarantees
		}
		if sp.Advise != nil {
			checkAdviseRoundTrip(t, sp)
			return
		}
		// A validated spec must build its campaign point (Validate ran
		// Point) and round-trip through the wire without drifting.
		p, err := sp.Point()
		if err != nil {
			t.Fatalf("Validate passed but Point failed: %v (spec %+v)", err, sp)
		}
		if p.Fault != nil {
			if _, err := p.Fault.Build(); err != nil {
				t.Fatalf("validated fault spec does not build: %v (%+v)", err, *p.Fault)
			}
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("validated spec does not encode: %v (%+v)", err, sp)
		}
		var back service.JobSpec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-decode failed: %v (%s)", err, out)
		}
		bp, err := back.Point()
		if err != nil {
			t.Fatalf("re-decoded spec lost validity: %v (%s)", err, out)
		}
		if !reflect.DeepEqual(bp, p) {
			t.Fatalf("round trip changed the point:\nbefore %+v\nafter  %+v\nwire %s", p, bp, out)
		}
	})
}

// FuzzLeaseSpecDecode: the /v1/leases request decoder never panics, and
// every request that decodes and validates survives an encode/decode round
// trip.
func FuzzLeaseSpecDecode(f *testing.F) {
	seeds := []string{
		`{"lease":{"worker":"w1","max_runs":256,"runs_per_sec":42.5}}`,
		`{"lease":{"worker":"w1"}}`,
		`{"worker":"w1","max_runs":256}`,
		`{"worker":"w1"}`,
		`{"lease":{"worker":"w1"},"worker":"w2"}`,
		`{"lease":{"max_runs":-1}}`,
		`{"lease":null}`,
		`{"max_runs":0,"runs_per_sec":-3}`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req service.LeaseRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if err := req.Validate(); err != nil {
			return
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("validated lease request does not encode: %v (%+v)", err, req)
		}
		var back service.LeaseRequest
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-decode failed: %v (%s)", err, out)
		}
		if back.Worker != req.Worker || back.MaxRuns != req.MaxRuns || back.RunsPerSec != req.RunsPerSec {
			t.Fatalf("round trip changed the request:\nbefore %+v\nafter  %+v\nwire %s", req, back, out)
		}
	})
}

// FuzzWorkerSpecDecode: the /v1/workers registration decoder never panics,
// and every spec that decodes and validates round-trips intact.
func FuzzWorkerSpecDecode(f *testing.F) {
	seeds := []string{
		`{"worker":{"name":"w1","caps":{"runs_per_sec":42.5,"snap_mb":256,"fault_models":["transient"]}}}`,
		`{"worker":{"name":"w1","caps":{}}}`,
		`{"worker":{"name":"","caps":{"runs_per_sec":-1}}}`,
		`{"worker":{"name":"w1","caps":{"fault_models":["cosmic"]}}}`,
		`{"worker":null}`,
		`{"name":"w1"}`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec service.WorkerSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if err := spec.Validate(); err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("validated worker spec does not encode: %v (%+v)", err, spec)
		}
		var back service.WorkerSpec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-decode failed: %v (%s)", err, out)
		}
		// An empty FaultModels list means "all models", same as absent; the
		// omitempty encoding legitimately collapses [] to nil.
		if len(spec.Caps.FaultModels) == 0 {
			spec.Caps.FaultModels = nil
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip changed the worker spec:\nbefore %+v\nafter  %+v\nwire %s", spec, back, out)
		}
	})
}

// FuzzAdviseSpecDecode: the advise{...} side of the job-spec decoder never
// panics, and every advise spec that decodes and validates survives an
// encode/decode round trip intact.
func FuzzAdviseSpecDecode(f *testing.F) {
	seeds := []string{
		`{"advise":{"app":"SRADv1","budget":0.005},"runs":3000,"seed":42}`,
		`{"advise":{"app":"VA","budget":0},"runs":1}`,
		`{"advise":{"app":"","budget":0.5},"runs":10}`,
		`{"advise":{"app":"NW","budget":1.5},"runs":10}`,
		`{"advise":{"app":"NW","budget":-1},"runs":10}`,
		`{"advise":{"app":"NW","budget":0.1}}`,
		`{"app":"NW","budget":0.1,"runs":10}`,
		`{"advise":null,"runs":10}`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp service.JobSpec
		if err := json.Unmarshal(data, &sp); err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if sp.Advise == nil || sp.Validate() != nil {
			return // campaign specs are FuzzJobSpecDecode's; rejected specs need no guarantees
		}
		checkAdviseRoundTrip(t, sp)
	})
}

// checkAdviseRoundTrip fails t unless a validated advise spec encodes,
// re-decodes to the same value and still validates: an advise spec is its
// own question and must round-trip whole.
func checkAdviseRoundTrip(t *testing.T, sp service.JobSpec) {
	t.Helper()
	out, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("validated advise spec does not encode: %v (%+v)", err, sp)
	}
	var back service.JobSpec
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("re-decode failed: %v (%s)", err, out)
	}
	if !reflect.DeepEqual(back, sp) || back.Validate() != nil {
		t.Fatalf("round trip changed the advise spec:\nbefore %+v\nafter  %+v\nwire %s", sp, back, out)
	}
}
