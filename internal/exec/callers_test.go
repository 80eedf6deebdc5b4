package exec

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// stillOnStep lists the non-test files outside this package that may drive
// Step through an Env of their own, each with the reason it has not moved.
// Neither simulator is on it: both execute compiled µops (internal/uop) and
// reach Step only from their test binaries, where it is the independent
// statement of the ISA they are checked against.
var stillOnStep = map[string]string{
	// The §VI taint tracker is an instrumented interpreter, not a simulator:
	// it shadows every register, predicate and memory access with a taint
	// bit, which is what a per-access Env is for and what a per-warp µop
	// handler cannot give it. It makes no performance or fault-outcome claim
	// of its own; avfsvf's propagation ablation and one example link it.
	"internal/propagate/propagate.go": "per-access taint shadowing",
}

// TestStepCallersOutsideTests fails when production code outside this
// package calls Step or implements Env (a method named ReadReg is the mark):
// the opcode semantics written here are the test-only oracle, and a second
// production interpreter next to the µop handlers would be the duplicate
// path this package stopped being. Test files are free to.
func TestStepCallersOutsideTests(t *testing.T) {
	call := regexp.MustCompile(`\bexec\.Step\(`)
	env := regexp.MustCompile(`(?m)^func \([^)]*\) ReadReg\(`)
	root := filepath.Join("..", "..")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if rel == "internal/exec" || strings.HasPrefix(d.Name(), ".") && path != root {
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
		if !call.Match(src) && !env.Match(src) {
			return nil
		}
		seen[rel] = true
		if stillOnStep[rel] == "" {
			t.Errorf("%s calls exec.Step or implements exec.Env outside a test", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rel := range stillOnStep {
		if !seen[rel] {
			t.Errorf("%s no longer uses exec.Step: drop it from stillOnStep", rel)
		}
	}
}
