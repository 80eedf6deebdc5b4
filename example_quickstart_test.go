package gpurel_test

import (
	"fmt"

	"gpurel"
	"gpurel/internal/funcsim"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// ExampleStudy_KernelAVF assesses one GPU workload at both abstraction
// layers: it runs vectorAdd on the cycle-level microarchitecture simulator
// and on the functional executor, then measures one small AVF campaign per
// hardware structure (microarchitecture-level injection, which forks, joins
// and prunes as every study does) and one SVF campaign (software-level
// injection into destination registers) — the paper's central measurement
// on one workload. The gap between the two is the hardware masking that
// software-level injection cannot see (§III-A).
func ExampleStudy_KernelAVF() {
	app, err := kernels.ByName("VA")
	if err != nil {
		panic(err)
	}
	job := app.Build()

	// 1. Run the workload on both engines.
	micro := sim.Run(job, gpu.Volta(), sim.Options{})
	if micro.Err != nil {
		panic(micro.Err)
	}
	soft := funcsim.Run(job, funcsim.Options{})
	if soft.Err != nil {
		panic(soft.Err)
	}
	if err := app.Check(micro.Output); err != nil {
		panic(err)
	}
	fmt.Printf("vectorAdd: %d cycles (microarchitectural), %d dynamic instructions (functional)\n",
		micro.Cycles, soft.DynInstrs)

	// 2. Measure AVF (cross-layer ground truth) and SVF (software-only).
	study := gpurel.NewStudy(200, 1)
	avf, structs, err := study.KernelAVF("VA", "K1", false)
	if err != nil {
		panic(err)
	}
	svf, err := study.KernelSVF("VA", "K1", false)
	if err != nil {
		panic(err)
	}
	fmt.Printf("SVF  (NVBitFI-style):      %6.2f%%  [SDC %.2f%%, Timeout %.2f%%, DUE %.2f%%]\n",
		100*svf.Total(), 100*svf.SDC, 100*svf.Timeout, 100*svf.DUE)
	fmt.Printf("AVF  (gpuFI-style, chip):  %6.2f%%  [SDC %.2f%%, Timeout %.2f%%, DUE %.2f%%]\n",
		100*avf.Total(), 100*avf.SDC, 100*avf.Timeout, 100*avf.DUE)
	for _, s := range structs {
		fmt.Printf("  %-5s DF=%.4f  AVF=%6.3f%%\n", s.Structure, s.DF, 100*s.AVF.Total())
	}
	// Output:
	// vectorAdd: 4251 cycles (microarchitectural), 34816 dynamic instructions (functional)
	// SVF  (NVBitFI-style):       91.50%  [SDC 63.50%, Timeout 0.00%, DUE 28.00%]
	// AVF  (gpuFI-style, chip):    2.60%  [SDC 1.63%, Timeout 0.00%, DUE 0.97%]
	//   RF    DF=0.2188  AVF= 3.062%
	//   SMEM  DF=0.0000  AVF= 0.000%
	//   L1D   DF=1.0000  AVF= 0.000%
	//   L1T   DF=1.0000  AVF= 0.000%
	//   L2    DF=1.0000  AVF= 3.000%
}
