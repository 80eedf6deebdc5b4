// Package cliutil carries the profiling flags the command-line tools share:
// the hot-loop work in this repo is driven by pprof evidence (see
// docs/perf.md), so every binary that runs campaigns can capture profiles
// of real workloads without a rebuild.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler owns the -cpuprofile/-memprofile flag pair registered by
// Profiling and the files they write.
type Profiler struct {
	cpu, mem *string
	cpuFile  *os.File
}

// Profiling registers -cpuprofile and -memprofile on fs. Call before
// fs.Parse; then call Start once after parsing and defer the returned stop.
func Profiling(fs *flag.FlagSet) *Profiler {
	return &Profiler{
		cpu: fs.String("cpuprofile", "", "write a pprof CPU profile to `file`"),
		mem: fs.String("memprofile", "", "write a pprof heap profile to `file` on exit"),
	}
}

// Start begins CPU profiling when requested. The returned stop function
// flushes the CPU profile and writes the heap profile (post-GC, so it shows
// live retention rather than transient garbage); it is safe to call when
// neither flag was set, and must run on the normal exit path — an os.Exit
// shortcut loses the profiles.
func (p *Profiler) Start() (stop func(), err error) {
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	return func() {
		if p.cpuFile != nil {
			pprof.StopCPUProfile()
			p.cpuFile.Close()
			p.cpuFile = nil
		}
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}
