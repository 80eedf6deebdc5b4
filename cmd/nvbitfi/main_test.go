package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPinnedTallies: the VA/K1 n=200 seed=1 campaign in every mode, plain
// and TMR-hardened. The rows were printed by the commit before the
// functional executor had checkpoints (every run replayed from the start of
// the job), so this test is the proof that fork-and-join changed how fast a
// run is classified and not what it is classified as.
func TestPinnedTallies(t *testing.T) {
	cases := []struct {
		mode   string
		tmr    bool
		golden string
		row    string
	}{
		{"svf", false, "golden run: 34816 dynamic instructions, 28672 injection candidates",
			"200   12.50%   59.50%    0.00%   28.00%   87.50%  ±6.05% "},
		{"svf", true, "golden run: 161792 dynamic instructions, 129024 injection candidates",
			"200   73.00%    5.00%    0.00%   22.00%   27.00%  ±7.99% "},
		{"svf-ld", false, "golden run: 34816 dynamic instructions, 4096 injection candidates",
			"200    4.50%   95.50%    0.00%    0.00%   95.50%  ±3.99% "},
		{"svf-ld", true, "golden run: 161792 dynamic instructions, 18432 injection candidates",
			"200  100.00%    0.00%    0.00%    0.00%    0.00%  ±1.61% "},
		{"svf-use", false, "golden run: 34816 dynamic instructions, 34816 injection candidates",
			"200   12.00%   53.00%    0.00%   35.00%   88.00%  ±5.95% "},
		{"svf-use", true, "golden run: 161792 dynamic instructions, 174080 injection candidates",
			"200   70.00%    5.50%    0.00%   24.50%   30.00%  ±8.24% "},
	}
	for _, tc := range cases {
		name := tc.mode
		args := []string{"-app", "VA", "-kernel", "K1", "-n", "200", "-seed", "1", "-mode", tc.mode}
		if tc.tmr {
			name += "+tmr"
			args = append(args, "-tmr")
		}
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			out := stdout.String()
			if !strings.HasPrefix(out, tc.golden+"\n") {
				t.Errorf("golden line moved:\n%s", out)
			}
			if !strings.Contains(out, "\n"+tc.row+"\n") {
				t.Errorf("tally row missing or moved, want %q:\n%s", tc.row, out)
			}
			// every K1 site lies past the first CTA boundary or in the first
			// CTA; with 8+ CTAs most runs fork
			if !strings.Contains(out, "\ncheckpointing: ") || strings.Contains(out, " 0 fork resumes") {
				t.Errorf("checkpointing footer missing or reports no forks:\n%s", out)
			}
		})
	}
}

// TestUsageErrors: a mode that does not exist is a usage error (exit 2)
// reported before any job is built; an unknown flag likewise.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-mode", "svf-all"}, {"-no-such-flag"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "NoSuchApp"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown app: exit %d, want 1", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-app", "VA", "-kernel", "K9", "-n", "20"}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), `VA has no kernel "K9"`) {
		t.Errorf("unknown kernel: exit %d, stderr %q, want 1 naming the kernel", code, stderr.String())
	}
}

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stdout.String(), "VA ") || !strings.Contains(stdout.String(), "BFS ") {
		t.Errorf("list output:\n%s", stdout.String())
	}
}
