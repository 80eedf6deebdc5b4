package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpurel/internal/campaign"
	"gpurel/internal/faults"
)

// TestEmitJSONRecord decodes one NDJSON line produced by the -json path and
// checks the campaign sizing fields (n, margin99) ride alongside the payload.
func TestEmitJSONRecord(t *testing.T) {
	var tl campaign.Tally
	tl.Add(faults.Result{Outcome: faults.Masked})
	tl.Add(faults.Result{Outcome: faults.SDC})

	var buf bytes.Buffer
	if err := emitJSON(&buf, "fig1", 300, tl); err != nil {
		t.Fatalf("emitJSON: %v", err)
	}
	if err := emitJSON(&buf, "fig2", 300, tl); err != nil {
		t.Fatalf("emitJSON: %v", err)
	}

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no NDJSON line emitted")
	}
	var rec struct {
		Figure   string         `json:"figure"`
		N        int            `json:"n"`
		Margin99 float64        `json:"margin99"`
		Data     campaign.Tally `json:"data"`
	}
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
		t.Fatalf("decoding NDJSON record: %v\nline: %s", err, sc.Bytes())
	}
	if rec.Figure != "fig1" {
		t.Errorf("figure = %q, want fig1", rec.Figure)
	}
	if rec.N != 300 {
		t.Errorf("n = %d, want 300", rec.N)
	}
	want := campaign.WorstCaseMargin99(300)
	if math.Abs(rec.Margin99-want) > 1e-12 {
		t.Errorf("margin99 = %v, want %v", rec.Margin99, want)
	}
	if rec.Data.N != 2 || rec.Data.Counts[faults.SDC] != 1 {
		t.Errorf("data payload did not round-trip: %+v", rec.Data)
	}

	// NDJSON means exactly one record per line.
	if !sc.Scan() {
		t.Fatal("second NDJSON line missing")
	}
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
		t.Fatalf("decoding second record: %v", err)
	}
	if rec.Figure != "fig2" {
		t.Errorf("second figure = %q, want fig2", rec.Figure)
	}
	if sc.Scan() {
		t.Errorf("unexpected extra line: %s", sc.Bytes())
	}
}

// TestAvfsvfGolden pins whole figures end to end: flags → study → campaigns
// → consolidation → table. The files under testdata are the stdout of the
// same commands at commit 430927f, before the study had one tally entry, so
// a byte that moves here is a number the paper's figures would print
// differently.
func TestAvfsvfGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"fig1_n10.txt", []string{"-fig", "1", "-n", "10"}},
		{"fig4_n10.txt", []string{"-fig", "4", "-n", "10"}},
		{"fig5_n10.txt", []string{"-fig", "5", "-n", "10"}},
		{"fig7_n10.txt", []string{"-fig", "7", "-n", "10"}},
		{"table1_n10.txt", []string{"-table", "1", "-n", "10"}},
		{"faultmodels_VA_NW_n6.txt", []string{"-faultmodels", "-faultmodels-apps", "VA,NW", "-n", "6"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("avfsvf %v moved:\n%s\nwant:\n%s", tc.args, stdout.String(), want)
			}
		})
	}
}

// TestUsageErrors: an unknown flag is a usage error (exit 2) with nothing on
// stdout; a figure that fails (here: an app that does not exist) exits 1.
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
		t.Errorf("unknown flag: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-faultmodels", "-faultmodels-apps", "NoSuchApp", "-n", "1"}, &stdout, &stderr); code != 1 || stdout.Len() != 0 {
		t.Errorf("unknown app: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestPruneFlagRejected: pruning is how every study runs, so the -prune
// flag avfsvf once had is a usage error.
func TestPruneFlagRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-prune", "-fig", "12"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("-prune: exit %d, stdout %q, want 2 and nothing", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -prune") {
		t.Errorf("-prune: stderr %q", stderr.String())
	}
}
