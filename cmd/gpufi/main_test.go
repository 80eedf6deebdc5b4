package main

import (
	"bytes"
	"strings"
	"testing"
)

// anchorRow is the VA/K1/RF n=300 seed=1 tally — Counts [254,29,0,17], the
// determinism anchor the daemon, the fleet and the benchmark all assert —
// as gpufi prints it.
const anchorRow = "RF         300   84.67%    9.67%    0.00%    5.67%   15.33%  ±5.35%   0.2188    3.35%"

// TestAnchorGolden: the anchor campaign prints the same table row whichever
// evidence accelerates it, and each acceleration reports itself in the
// footer. Fork-and-join is the default, so both cases fork from the same
// 24 snapshots.
func TestAnchorGolden(t *testing.T) {
	base := []string{"-app", "VA", "-kernel", "K1", "-structure", "RF", "-n", "300", "-seed", "1"}
	cases := []struct {
		name    string
		flags   []string
		footers []string
	}{
		{"fork-join", nil, []string{"checkpointing: 24 snapshots"}},
		{"prune", []string{"-prune"}, []string{"pruned (liveness)", "checkpointing: 24 snapshots"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append(base[:len(base):len(base)], tc.flags...), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			out := stdout.String()
			if !strings.Contains(out, "\n"+anchorRow+"\n") {
				t.Errorf("anchor row missing or moved:\n%s", out)
			}
			for _, footer := range tc.footers {
				if !strings.Contains(out, footer) {
					t.Errorf("footer %q missing:\n%s", footer, out)
				}
			}
		})
	}
}

// TestBothPrunersCoverSmem: -prune covers shared memory as well as the
// register file — both read the dead intervals of one golden schedule trace
// — so an SMEM campaign is pruned, and its tally does not move.
func TestBothPrunersCoverSmem(t *testing.T) {
	base := []string{"-app", "BackProp", "-structure", "SMEM", "-n", "40", "-seed", "1"}
	row := func(flags ...string) (string, string) {
		var stdout, stderr bytes.Buffer
		if code := run(append(base[:len(base):len(base)], flags...), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "SMEM ") {
				return line, stdout.String()
			}
		}
		t.Fatalf("no SMEM row:\n%s", stdout.String())
		return "", ""
	}
	want, _ := row()
	got, out := row("-prune")
	if got != want {
		t.Errorf("pruned row %q != brute-force row %q", got, want)
	}
	if strings.Contains(out, " 0 pruned") || !strings.Contains(out, "pruned (liveness)") {
		t.Errorf("SMEM was not pruned from the intervals:\n%s", out)
	}
}

// TestUnknownKernel: a kernel the application does not have is an error,
// not a campaign that injects nothing and reports 0 %.
func TestUnknownKernel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "VA", "-kernel", "K9", "-structure", "RF", "-n", "20"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), `VA has no kernel "K9"`) {
		t.Errorf("exit %d, stderr %q, want 1 naming the kernel", code, stderr.String())
	}
}

// TestOldSnapshotFlagsRejected: fork-and-join is not a choice, so every
// spelling of the snapshot flags gpufi once had is a usage error.
func TestOldSnapshotFlagsRejected(t *testing.T) {
	for _, name := range []string{"checkpoint", "checkpoint-mb", "snap-stride", "snap-mb", "converge"} {
		old := "-" + name
		var stdout, stderr bytes.Buffer
		if code := run([]string{old, "-1"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", old, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("%s: stderr %q", old, stderr.String())
		}
	}
}
