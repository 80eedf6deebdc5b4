// Tests for the static AVF bounds artifact: on every shipped app the flow
// interval engine's static bracket must contain the AVF measured by a real
// injection campaign, and the per-app × per-structure table is exportable
// as the CI artifact (GPUREL_STATICBOUNDS_JSON).
package gpurel

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
)

// staticBoundsRow is one artifact line: an app × structure cell with the
// static bracket and the campaign-measured AVF it must contain. Lower and
// Upper are the bracket for the recorded campaign: Lower is 0 (the engine
// proves deadness, never ACE-ness) and Upper is the fraction of the
// campaign's runs the interval engine could not pre-classify Masked — a
// deterministic bound, since every failing run must have hit a
// statically-live site. SweepLower/SweepUpper are the analytic cycle-sweep
// expectations of the same quantities under the injector's site
// distribution (what gpudis -avf-bounds prints); the measured AVF must
// agree with SweepUpper up to the campaign's 99% CI margin.
type staticBoundsRow struct {
	App        string  `json:"app"`
	Structure  string  `json:"structure"`
	Supported  bool    `json:"supported"`
	Lower      float64 `json:"lower"`
	Upper      float64 `json:"upper"`
	SweepLower float64 `json:"sweep_lower"`
	SweepUpper float64 `json:"sweep_upper"`
	Measured   float64 `json:"measured"`
	Runs       int     `json:"runs"`
	Pruned     int     `json:"pruned"`
}

// TestStaticBoundsArtifact is the acceptance artifact test: for every app
// and every storage structure — RF and SMEM from the interval map, L1D, L1T
// and L2 from the cache data record — the static bracket must contain the
// measured AVF — lower ≤ measured ≤ upper. The measured AVF is the campaign
// failure rate (non-Masked fraction); the campaign runs through the
// interval prune, whose tallies are property-tested bit-identical to brute
// force, so the prune fraction and the measurement come from the same runs
// and the bracket check is exact, not statistical. The analytic sweep bound
// is validated against the same measurement within the campaign's 99% CI
// margin. When GPUREL_STATICBOUNDS_JSON names a path the full table is
// written as the CI artifact.
func TestStaticBoundsArtifact(t *testing.T) {
	runs := envInt("GPUREL_STATICBOUNDS_RUNS", 120)
	only := os.Getenv("GPUREL_STATICBOUNDS_APPS")
	cfg := gpu.Volta()
	var rows []staticBoundsRow
	for _, app := range kernels.All() {
		if only != "" && only != "all" && !strings.Contains(","+only+",", ","+app.Name+",") {
			continue
		}
		job := app.Build()
		g, err := microfi.Golden(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		si, err := microfi.TraceStatic(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range gpu.Structures {
			b := si.Bounds(st, "")
			if !b.Supported {
				t.Errorf("%s/%v: interval engine reports unsupported", app.Name, st)
				continue
			}
			tgt := microfi.Target{Structure: st}
			counters := &adaptive.Counters{}
			tl := campaign.Run(campaign.Options{Runs: runs, Seed: 1},
				counters.Instrument(func(run int, rng *rand.Rand) (faults.Result, bool) {
					return microfi.InjectStatic(job, g, si, tgt, rng)
				}))
			pruned := int(counters.Pruned.Load())
			upper := float64(tl.N-pruned) / float64(tl.N)
			measured := tl.FR()
			if !(0 <= measured && measured <= upper) {
				t.Errorf("%s/%v: measured AVF %.4f outside static bracket [0, %.4f] (%d of %d runs pruned)",
					app.Name, st, measured, upper, pruned, tl.N)
			}
			if margin := tl.Margin99(); measured > b.Upper+margin {
				t.Errorf("%s/%v: measured AVF %.4f above analytic sweep upper %.4f beyond the ±%.4f 99%% margin",
					app.Name, st, measured, b.Upper, margin)
			}
			rows = append(rows, staticBoundsRow{
				App: app.Name, Structure: st.String(), Supported: true,
				Lower: 0, Upper: upper, SweepLower: b.Lower, SweepUpper: b.Upper,
				Measured: measured, Runs: tl.N, Pruned: pruned,
			})
		}
	}
	if only == "" || only == "all" {
		if want := len(kernels.All()) * 5; len(rows) != want {
			t.Fatalf("table has %d rows, want %d", len(rows), want)
		}
	}

	// Determinism: re-tracing reproduces the first app's sweep bracket bit
	// for bit.
	first := kernels.All()[0]
	si2, err := microfi.TraceStatic(first.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range gpu.Structures {
		if a, b := si2.Bounds(st, ""), rowFor(rows, first.Name, st.String()); b != nil &&
			(a.Lower != b.SweepLower || a.Upper != b.SweepUpper) {
			t.Errorf("%s/%v bracket not reproducible: [%v, %v] != [%v, %v]",
				first.Name, st, a.Lower, a.Upper, b.SweepLower, b.SweepUpper)
		}
	}

	if path := os.Getenv("GPUREL_STATICBOUNDS_JSON"); path != "" {
		raw, err := json.MarshalIndent(map[string]any{"table": "static_avf_bounds", "rows": rows}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func rowFor(rows []staticBoundsRow, app, structure string) *staticBoundsRow {
	for i := range rows {
		if rows[i].App == app && rows[i].Structure == structure {
			return &rows[i]
		}
	}
	return nil
}
