package gpurel_test

import (
	"fmt"

	"gpurel"
)

// ExampleStudy_KernelAVF_tmr is the paper's §IV case study: harden a kernel
// with thread-level Triple Modular Redundancy and compare its vulnerability
// before and after at both abstraction layers. Under software-level
// evaluation TMR removes the SDCs, but DUEs remain because the voter turns
// corruption into detected errors; the cross-layer AVF can even rise despite
// the extra execution cost (Insight #5).
func ExampleStudy_KernelAVF_tmr() {
	const app, kernel = "SCP", "K1"
	study := gpurel.NewStudy(200, 7)

	svf, err := study.KernelSVF(app, kernel, false)
	if err != nil {
		panic(err)
	}
	svfH, err := study.KernelSVF(app, kernel, true)
	if err != nil {
		panic(err)
	}
	avf, _, err := study.KernelAVF(app, kernel, false)
	if err != nil {
		panic(err)
	}
	avfH, _, err := study.KernelAVF(app, kernel, true)
	if err != nil {
		panic(err)
	}

	row := func(name string, sdc, timeout, due float64) {
		fmt.Printf("  %-22s SDC %6.2f%%   Timeout %6.2f%%   DUE %6.2f%%   total %6.2f%%\n",
			name, 100*sdc, 100*timeout, 100*due, 100*(sdc+timeout+due))
	}
	fmt.Println("software-level (SVF):")
	row("unprotected", svf.SDC, svf.Timeout, svf.DUE)
	row("TMR-hardened", svfH.SDC, svfH.Timeout, svfH.DUE)
	fmt.Println("cross-layer (AVF):")
	row("unprotected", avf.SDC, avf.Timeout, avf.DUE)
	row("TMR-hardened", avfH.SDC, avfH.Timeout, avfH.DUE)

	// the protection overhead
	e, err := study.Eval(app)
	if err != nil {
		panic(err)
	}
	fmt.Printf("execution cost: %d → %d cycles (%.2f×)\n",
		e.MicroG.Res.Cycles, e.MicroGTMR.Res.Cycles,
		float64(e.MicroGTMR.Res.Cycles)/float64(e.MicroG.Res.Cycles))
	// Output:
	// software-level (SVF):
	//   unprotected            SDC  55.50%   Timeout   0.50%   DUE  34.50%   total  90.50%
	//   TMR-hardened           SDC   0.00%   Timeout   0.00%   DUE  27.00%   total  27.00%
	// cross-layer (AVF):
	//   unprotected            SDC   0.73%   Timeout   0.03%   DUE   0.80%   total   1.56%
	//   TMR-hardened           SDC   0.00%   Timeout   0.10%   DUE   2.18%   total   2.28%
	// execution cost: 11983 → 20745 cycles (1.73×)
}
