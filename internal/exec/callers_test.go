package exec

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestStepCallersOutsideTests fails when production code outside this
// package calls Step or implements Env (a method named ReadReg is the mark):
// the opcode semantics written here are the test-only oracle, and a second
// production interpreter next to the µop handlers would be the duplicate
// path this package stopped being. Both simulators execute compiled µops
// (internal/uop), and the analyses that look at single accesses trace
// funcsim's lane-by-lane walk (funcsim.Tracer). Test files are free to.
func TestStepCallersOutsideTests(t *testing.T) {
	call := regexp.MustCompile(`\bexec\.Step\(`)
	env := regexp.MustCompile(`(?m)^func \([^)]*\) ReadReg\(`)
	eachProductionFile(t, func(dir, rel string, src []byte) {
		if dir != "internal/exec" && (call.Match(src) || env.Match(src)) {
			t.Errorf("%s calls exec.Step or implements exec.Env outside a test", rel)
		}
	})
}

// TestOneControlHalf fails when production code outside this package and
// internal/uop pushes a SIMT stack entry or normalises a stack: the control
// half of a step (normalise, guard, BRA / EXIT / BAR) is written once for
// both simulators, in uop.(*Program).Issue, and once more as the oracle in
// Step. An executor with its own copy would drift from the other unseen.
// Test files are free to.
func TestOneControlHalf(t *testing.T) {
	push := regexp.MustCompile(`\bexec\.Ent\{`)
	norm := regexp.MustCompile(`\.Normalize\(\)`)
	eachProductionFile(t, func(dir, rel string, src []byte) {
		if dir != "internal/exec" && dir != "internal/uop" && (push.Match(src) || norm.Match(src)) {
			t.Errorf("%s pushes a SIMT stack entry or calls Normalize outside internal/uop", rel)
		}
	})
}

// eachProductionFile calls fn with every non-test Go file of the repository,
// its directory and its path relative to the root, slash-separated.
func eachProductionFile(t *testing.T, fn func(dir, rel string, src []byte)) {
	t.Helper()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(filepath.Dir(rel)), rel, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
