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

// TestAnchorGolden: the anchor campaign prints the brute-force table row
// while it forks from the 24 snapshots and prunes dead draws, and each
// acceleration reports itself in the footer.
func TestAnchorGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "VA", "-kernel", "K1", "-structure", "RF", "-n", "300", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "\n"+anchorRow+"\n") {
		t.Errorf("anchor row missing or moved:\n%s", out)
	}
	cases := []struct {
		name   string
		footer string
	}{
		{"fork-join", "checkpointing: 24 snapshots"},
		{"prune", "pruned (liveness)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(out, tc.footer) {
				t.Errorf("footer %q missing:\n%s", tc.footer, out)
			}
		})
	}
}

// bruteSmemRow is the BackProp SMEM n=40 seed=1 row as brute force prints
// it, captured before pruning became how gpufi runs.
const bruteSmemRow = "SMEM       40   90.00%   10.00%    0.00%    0.00%   10.00%  ±12.67%   0.0301    0.30%"

// TestBothPrunersCoverSmem: pruning covers shared memory as well as the
// register file — both read the dead intervals of one golden schedule trace
// — so an SMEM campaign is pruned, and its row is the brute-force one.
func TestBothPrunersCoverSmem(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "BackProp", "-structure", "SMEM", "-n", "40", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "\n"+bruteSmemRow+"\n") {
		t.Errorf("SMEM row is not the brute-force row %q:\n%s", bruteSmemRow, out)
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

// TestOldSnapshotFlagsRejected: fork-and-join and pruning are not choices,
// so every spelling of the snapshot and prune flags gpufi once had is a
// usage error.
func TestOldSnapshotFlagsRejected(t *testing.T) {
	for _, name := range []string{"checkpoint", "checkpoint-mb", "snap-stride", "snap-mb", "converge", "prune"} {
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
