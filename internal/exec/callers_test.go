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
	root := filepath.Join("..", "..")
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
		if call.Match(src) || env.Match(src) {
			t.Errorf("%s calls exec.Step or implements exec.Env outside a test", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
