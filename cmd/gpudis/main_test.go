package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGpudisGolden pins one listing per mode. The files under testdata are
// the stdout of the same commands at commit 9b63c85, the last one whose
// cycle simulator stepped every cycle: -avf-bounds traces a fault-free run
// and prints its cycle count and cycle-weighted live fractions, so besides
// the disassembler, the CFG builder, the linter and the site inventory it
// witnesses that event-driven time moved no simulated cycle. Its L1D, L1T
// and L2 rows were regenerated when the cache frame record gave caches a
// bracket of their own, and again when that record began to log reads and
// kills; its cycle count and RF/SMEM rows are unchanged.
func TestGpudisGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"va_k1_reuse.txt", []string{"-app", "VA", "-kernel", "K1", "-reuse"}},
		{"lud_k2_cfg.txt", []string{"-app", "LUD", "-kernel", "K2", "-cfg"}},
		{"bfs_lint.txt", []string{"-app", "BFS", "-lint"}},
		{"lud_sites.txt", []string{"-app", "LUD", "-sites"}},
		{"va_avf_bounds.txt", []string{"-app", "VA", "-avf-bounds"}},
	} {
		t.Run(strings.TrimSuffix(c.golden, ".txt"), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			// Every pinned command exited 0 at that commit, -lint included
			// (BFS is clean).
			if code := run(c.args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("gpudis %s drifted from testdata/%s:\n%s", strings.Join(c.args, " "), c.golden, stdout.String())
			}
		})
	}
}

// TestGpudisExitStatus: an unknown kernel is exit 1 with the reason on
// stderr whichever mode asked for it, an unknown flag is a usage error.
func TestGpudisExitStatus(t *testing.T) {
	for _, mode := range []string{"-reuse", "-lint", "-sites", "-avf-bounds"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-app", "VA", "-kernel", "K9", mode}, &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), `VA has no kernel "K9"`) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q", mode, code, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
