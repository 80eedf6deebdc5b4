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
// gpuharden prints for the same flags: plan [K1 K2] (full TMR, overhead
// 1.030, cheaper than [K2] alone at 1.205), verified SDC 0 over 600 runs.
// The per-kernel numbers come from plain and TMR campaigns and the subset
// overheads from golden runs of the plain, proper-subset and TMR jobs, so
// every kind of variant feeds this file.
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

// TestGpuhardenJournalResume: a second run on the same -journal resumes
// from it and prints the same -json document byte for byte; a truncated
// journal is an error naming the path, never a fresh start.
func TestGpuhardenJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "va.advise.json")
	args := []string{"-app", "VA", "-sdc-budget", "0", "-n", "20", "-json", "-journal", path}
	var first, stderr bytes.Buffer
	if code := run(args, &first, &stderr); code != 0 {
		t.Fatalf("first run: exit %d, stderr: %s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "resuming") || !strings.Contains(first.String(), `"K1"`) {
		t.Fatalf("first run resumed or protected nothing:\n%s\n%s", stderr.String(), first.String())
	}

	var second bytes.Buffer
	stderr.Reset()
	if code := run(args, &second, &stderr); code != 0 {
		t.Fatalf("second run: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "gpuharden: resuming from "+path) {
		t.Errorf("second run did not resume: %s", stderr.String())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("resumed output differs:\n%s\nfirst run:\n%s", second.String(), first.String())
	}

	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, saved[:len(saved)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	stderr.Reset()
	if code := run(args, &stdout, &stderr); code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "journal "+path) {
		t.Errorf("truncated journal: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
