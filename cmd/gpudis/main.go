// Command gpudis disassembles the benchmark kernels into the repository's
// SASS-like assembly and optionally annotates register reuse — the static
// view behind Figure 12's analyzer.
//
// Usage:
//
//	gpudis -app SRADv1                 # list kernels with sizes
//	gpudis -app SRADv1 -kernel K4      # disassemble one kernel
//	gpudis -app VA -kernel K1 -reuse   # annotate destination-register fanout
//	gpudis -app HotSpot -kernel K1 -mix  # static instruction mix
//	gpudis -app LUD -kernel K2 -cfg    # basic-block CFG with dominators
//	gpudis -app LUD -kernel K2 -dot    # CFG in Graphviz dot syntax
//	gpudis -app BFS -lint              # lint every kernel of the app
//	gpudis -app LUD -sites             # injectable control-state sites per kernel
//	gpudis -app VA -avf-bounds         # static AVF bounds per kernel and structure
//
// -lint exits 2 when any kernel has error-severity findings, 1 when only
// warnings, 0 when clean. The lint pass includes the shared-memory sync
// checker: smem-sync (cross-thread shared-memory dependence with no barrier
// between store and load) is an error; bar-redundant (a barrier no shared
// memory access needs) is a warning.
//
// -avf-bounds traces the job fault-free with the flow interval engine and
// the cache data record and prints, per kernel, the static AVF bracket
// [lower, upper] for each storage structure: RF and SMEM come from the
// dead/live intervals, L1D, L1T and L2 from the share of draws that land
// on a cache byte read before its next kill.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"gpurel/internal/device"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
	"gpurel/internal/reuse"
	"gpurel/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state made explicit: the listing for args on
// stdout, diagnostics on stderr, and the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpudis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName = fs.String("app", "", "benchmark application")
		kernel  = fs.String("kernel", "", "kernel name (K1..Kn)")
		fanout  = fs.Bool("reuse", false, "annotate destination-register reuse fanout")
		mix     = fs.Bool("mix", false, "print the static instruction mix instead of the listing")
		lint    = fs.Bool("lint", false, "run the static kernel linter (all kernels when -kernel is empty)")
		cfg     = fs.Bool("cfg", false, "print the basic-block CFG with dominators")
		dot     = fs.Bool("dot", false, "print the CFG in Graphviz dot syntax")
		sites   = fs.Bool("sites", false, "list injectable control-state sites (SCHED/STACK/BARRIER) per kernel launch")
		bounds  = fs.Bool("avf-bounds", false, "print static AVF lower/upper bounds per kernel and structure from the interval engine")
		list    = fs.Bool("list", false, "list benchmarks")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "gpudis:", err)
		return 1
	}

	if *list || *appName == "" {
		for _, a := range kernels.All() {
			fmt.Fprintf(stdout, "%-12s %v\n", a.Name, a.Kernels)
		}
		return 0
	}
	app, err := kernels.ByName(*appName)
	if err != nil {
		return fail(err)
	}
	job := app.Build()

	progs := map[string]*isa.Program{}
	var order []string
	for _, st := range job.Steps {
		if st.Launch == nil {
			continue
		}
		name := st.Launch.Name()
		if _, ok := progs[name]; !ok {
			progs[name] = st.Launch.Kernel
			order = append(order, name)
		}
	}
	// names is what the per-kernel modes walk: the one kernel asked for, or
	// all of them in first-launch order.
	names := order
	if err := app.CheckKernel(*kernel); err != nil {
		return fail(err)
	}
	if *kernel != "" {
		names = []string{*kernel}
	}

	if *lint {
		exit := 0
		for _, name := range names {
			p := progs[name]
			diags := flow.Lint(p)
			if len(diags) == 0 {
				fmt.Fprintf(stdout, "%s %s (%s): clean\n", app.Name, name, p.Name)
				continue
			}
			fmt.Fprintf(stdout, "%s %s (%s): %d finding(s)\n", app.Name, name, p.Name, len(diags))
			for _, d := range diags {
				fmt.Fprintf(stdout, "  %s\n", d)
				if d.Sev == flow.Error {
					exit = 2
				} else if exit == 0 {
					exit = 1
				}
			}
		}
		return exit
	}

	if *sites {
		printSites(stdout, app.Name, job, progs, *kernel)
		return 0
	}

	if *bounds {
		si, err := microfi.TraceStatic(job, gpu.Volta())
		if err != nil {
			return fail(err)
		}
		printBounds(stdout, app.Name, si, names)
		return 0
	}

	if *kernel == "" {
		fmt.Fprintf(stdout, "%s: %d kernels\n", app.Name, len(order))
		for _, name := range order {
			p := progs[name]
			fmt.Fprintf(stdout, "  %-4s %-24s %4d instructions, %3d registers/thread\n",
				name, p.Name, len(p.Code), p.NumRegs)
		}
		describeSchedule(stdout, job)
		return 0
	}
	p := progs[*kernel]
	fmt.Fprintf(stdout, "// %s %s (%s): %d instructions, %d registers per thread\n",
		app.Name, *kernel, p.Name, len(p.Code), p.NumRegs)
	switch {
	case *mix:
		printMix(stdout, p)
	case *dot:
		fmt.Fprint(stdout, flow.Build(p).Dot())
	case *cfg:
		fmt.Fprint(stdout, flow.Build(p).String())
	case *fanout:
		fan := reuse.Fanout(p)
		for pc, ins := range p.Code {
			note := ""
			if n, ok := fan[pc]; ok {
				note = fmt.Sprintf("  // %d later reads of R%d", n, ins.Dst)
			}
			fmt.Fprintf(stdout, "#%-4d %-50s%s\n", pc, ins.String(), note)
		}
	default:
		fmt.Fprint(stdout, p.Disassemble())
	}
	return 0
}

// printMix prints the static opcode histogram of a kernel — the
// "instruction types and counts" dimension the paper's §II-D controls for
// by benchmark diversity.
func printMix(w io.Writer, p *isa.Program) {
	counts := map[isa.Op]int{}
	for _, ins := range p.Code {
		counts[ins.Op]++
	}
	type row struct {
		op isa.Op
		n  int
	}
	var rows []row
	for op, n := range counts {
		rows = append(rows, row{op, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].op < rows[j].op
	})
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %4d  (%4.1f%%)\n", r.op, r.n, 100*float64(r.n)/float64(len(p.Code)))
	}
}

// printSites lists the control-state fault sites each kernel launch exposes
// to the "control" fault model (internal/faultmodel): warp-scheduler entry
// bits and barrier-arrival latches are fixed by the launch geometry, while
// SIMT-stack sites exist only while warps are diverged, so the static view
// reports the per-warp ceiling alongside the kernel's branch/barrier usage.
func printSites(w io.Writer, appName string, job *device.Job, progs map[string]*isa.Program, only string) {
	warpsPerBlock := func(l *device.Launch) int {
		return (l.BlockX*l.BlockY + 31) / 32
	}
	for _, st := range job.Steps {
		if st.Launch == nil {
			continue
		}
		l := st.Launch
		name := l.Name()
		if only != "" && name != only {
			continue
		}
		p := progs[name]
		warps := l.GridX * l.GridY * warpsPerBlock(l)
		branches, bars := 0, 0
		for _, ins := range p.Code {
			switch ins.Op {
			case isa.OpBRA:
				branches++
			case isa.OpBAR:
				bars++
			}
		}
		fmt.Fprintf(w, "%s %s (%s): %d warps (%d blocks × %d warps/block)\n",
			appName, name, p.Name, warps, l.GridX*l.GridY, warpsPerBlock(l))
		fmt.Fprintf(w, "  SCHED    %6d bits  (%d warp-scheduler entries × %d bits: ready timestamp + done latch)\n",
			warps*sim.SchedEntryBits, warps, sim.SchedEntryBits)
		fmt.Fprintf(w, "  STACK    dynamic       (%d words × 32 bits per live divergence entry; %d static branches%s)\n",
			sim.StackEntryWords, branches, map[bool]string{true: "", false: " — never diverges"}[branches > 0])
		fmt.Fprintf(w, "  BARRIER  %6d bits  (1 arrival latch per warp; %d static BAR instructions%s)\n",
			warps, bars, map[bool]string{true: "", false: " — barrier faults cannot deadlock this kernel"}[bars > 0])
	}
}

// printBounds prints, from a fault-free trace of the job, each kernel's
// static AVF bracket per storage structure. The upper bound is the expected
// share of the injector's draws over the kernel's injection windows that
// land in live state: a live register or shared-memory entry, a cache byte
// read before its next kill. The lower bound is 0 (the engine proves deadness, not ACE-ness).
func printBounds(w io.Writer, appName string, si *microfi.StaticIntervals, names []string) {
	fmt.Fprintf(w, "%s: static AVF bounds (%d traced cycles)\n", appName, si.Cycles)
	for _, name := range names {
		fmt.Fprintf(w, "  %s:\n", name)
		for _, st := range gpu.Structures {
			b := si.Bounds(st, name)
			fmt.Fprintf(w, "    %-5s [%6.4f, %6.4f]\n", st, b.Lower, b.Upper)
		}
	}
}

func describeSchedule(w io.Writer, job *device.Job) {
	fmt.Fprintln(w, "schedule:")
	for i, st := range job.Steps {
		switch {
		case st.Launch != nil:
			l := st.Launch
			fmt.Fprintf(w, "  %2d: launch %-4s grid %d×%d, block %d×%d, smem %dB\n",
				i, l.Name(), l.GridX, l.GridY, l.BlockX, l.BlockY, l.SmemBytes)
		case st.Host != nil:
			fmt.Fprintf(w, "  %2d: host step\n", i)
		}
	}
}
