package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGpuhardenGolden pins one advise run end to end — measure, price,
// search, verify on the selectively hardened job — as the JSON document
// gpuharden printed for the same flags at commit 430927f: plan [K2],
// verified SDC 0.00056 over 600 runs. The per-kernel numbers come from
// plain and TMR campaigns, the verification from a proper-subset variant,
// so every kind of study point feeds this file.
func TestGpuhardenGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "NW_budget0.002_n60.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "NW", "-sdc-budget", "0.002", "-n", "60", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("advisor state moved:\n%s\nwant:\n%s", stdout.String(), want)
	}
	if !strings.Contains(stderr.String(), "gpuharden: phase done\n") {
		t.Errorf("progress log: %s", stderr.String())
	}
}

// TestUsageErrors: a missing app, an SDC budget outside [0, 1) and an
// unknown flag are usage errors (exit 2) reported before any study is built.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"-app", "NW", "-sdc-budget", "1"}, {"-no-such-flag"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
		}
	}
}

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stdout.String(), "NW       2 kernel(s)\n") {
		t.Errorf("list output:\n%s", stdout.String())
	}
}
