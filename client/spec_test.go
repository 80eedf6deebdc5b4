// The client package's wire types must be the server's wire types: every
// golden job-spec fixture the server decodes (nested fault group, harden
// list) must decode as a client.JobSpec, survive an encode/decode round
// trip, and resolve to the identical campaign point — and the flat pre-v1
// fixture the server rejects, the client type must reject too.
package client_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gpurel/client"
	"gpurel/internal/service"
)

const goldenDir = "../internal/service/testdata"

func TestJobSpecGoldenRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "jobspec_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("golden fixtures: %v (found %d)", err, len(files))
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var sp client.JobSpec
			err = json.Unmarshal(data, &sp)
			if filepath.Base(path) == "jobspec_legacy.json" {
				if err == nil {
					t.Fatalf("flat fixture decoded to %+v; only the nested spelling is accepted", sp)
				}
				return
			}
			if err != nil {
				t.Fatalf("client decode: %v", err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("golden fixture does not validate: %v", err)
			}
			p, err := sp.Point()
			if err != nil {
				t.Fatalf("Point: %v", err)
			}
			// The client type IS the server type — same decoder, same point.
			var srv service.JobSpec
			if err := json.Unmarshal(data, &srv); err != nil {
				t.Fatalf("server decode: %v", err)
			}
			srvPoint, err := srv.Point()
			if err != nil {
				t.Fatalf("server Point: %v", err)
			}
			if !reflect.DeepEqual(p, srvPoint) {
				t.Fatalf("client and server decode diverge:\nclient %+v\nserver %+v", p, srvPoint)
			}
			// Encode/decode round trip: the re-emitted wire form must resolve
			// to the same point.
			out, err := json.Marshal(sp)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			var back client.JobSpec
			if err := json.Unmarshal(out, &back); err != nil {
				t.Fatalf("re-decode: %v (%s)", err, out)
			}
			bp, err := back.Point()
			if err != nil {
				t.Fatalf("re-decoded Point: %v (%s)", err, out)
			}
			if !reflect.DeepEqual(bp, p) {
				t.Fatalf("round trip changed the point:\nbefore %+v\nafter  %+v\nwire %s", p, bp, out)
			}
		})
	}
}

// The fault group's fields must survive the round trip spelled exactly as
// the server spells them — model/stuck/width/lines — so third-party tooling
// that templates raw JSON against the fixtures keeps working against specs
// the client emits.
func TestFaultGroupWireFields(t *testing.T) {
	stuck := 1
	sp := client.JobSpec{
		Layer: "micro", App: "VA", Kernel: "K1", Structure: "SMEM",
		Runs: 10, Seed: 7,
		Fault: &client.FaultSpec{Model: client.ModelMBU, Width: 2, Lines: 2},
	}
	out, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(out, &raw); err != nil {
		t.Fatal(err)
	}
	var fg map[string]any
	if err := json.Unmarshal(raw["fault"], &fg); err != nil {
		t.Fatalf("no fault group in %s: %v", out, err)
	}
	want := map[string]any{"model": "mbu", "width": float64(2), "lines": float64(2)}
	if !reflect.DeepEqual(fg, want) {
		t.Fatalf("fault group wire form %v, want %v", fg, want)
	}

	sp.Structure = "SCHED"
	sp.Fault = &client.FaultSpec{Model: client.ModelControl, Stuck: &stuck}
	out, err = json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	raw, fg = nil, nil // Unmarshal merges into a non-nil map: start fresh
	if err := json.Unmarshal(out, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw["fault"], &fg); err != nil {
		t.Fatalf("no fault group in %s: %v", out, err)
	}
	want = map[string]any{"model": "control", "stuck": float64(1)}
	if !reflect.DeepEqual(fg, want) {
		t.Fatalf("fault group wire form %v, want %v", fg, want)
	}
}

// AdviseSpec round-trips through the client alias with the same strict
// decoding as the server: unknown fields rejected, nested advise group
// preserved.
func TestAdviseSpecRoundTrip(t *testing.T) {
	wire := `{"advise":{"app":"SRADv1","budget":0.005},"runs":3000,"seed":42}`
	var sp client.AdviseSpec
	if err := json.Unmarshal([]byte(wire), &sp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if sp.Advise.App != "SRADv1" || sp.Advise.Budget != 0.005 || sp.Runs != 3000 || sp.Seed != 42 {
		t.Fatalf("decoded %+v", sp)
	}
	out, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back client.AdviseSpec
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("re-decode: %v (%s)", err, out)
	}
	if !reflect.DeepEqual(back, sp) {
		t.Fatalf("round trip changed the spec:\nbefore %+v\nafter  %+v", sp, back)
	}
	if err := json.Unmarshal([]byte(`{"advise":{"app":"VA","budget":0.1},"bogus":1}`), &sp); err == nil {
		t.Fatal("unknown field accepted by strict advise decoder")
	}
}
