package gpurel_test

import (
	"fmt"
	"sort"

	"gpurel"
	"gpurel/internal/kernels"
	"gpurel/internal/reuse"
	"gpurel/internal/softfi"
)

// ExampleStudy_SoftTally is the paper's §V-B register-reuse argument on a
// real kernel. Software-level injectors corrupt a destination register
// value, which every later read of the register repeats; a flavour of the
// methodology corrupts a single operand use instead. The example reports
// how often scalarProd re-reads each value it produces, then measures the
// SVF of both injection models on the same kernel. The paper's worked
// example of the same effect is Figure 12 (avfsvf -fig 12).
func ExampleStudy_SoftTally() {
	app, err := kernels.ByName("SCP")
	if err != nil {
		panic(err)
	}
	prog := app.Build().Steps[0].Launch.Kernel
	fan := reuse.Fanout(prog)
	var pcs []int
	total := 0
	for pc, n := range fan {
		pcs = append(pcs, pc)
		total += n
	}
	sort.Ints(pcs)
	fmt.Printf("reuse fanout of %s (reads of each produced value before overwrite):\n", prog.Name)
	for _, pc := range pcs {
		if fan[pc] > 0 {
			fmt.Printf("  #%-3d %-40s → %d later reads\n", pc, prog.Code[pc].String(), fan[pc])
		}
	}
	fmt.Printf("mean fanout: %.2f reads per produced value\n", float64(total)/float64(len(fan)))

	study := gpurel.NewStudy(250, 5)
	persistent, err := study.SoftTally("SCP", "K1", softfi.SVF, false)
	if err != nil {
		panic(err)
	}
	transient, err := study.SoftTally("SCP", "K1", softfi.SVFUse, false)
	if err != nil {
		panic(err)
	}
	fmt.Printf("SVF, persistent destination corruption (NVBitFI model): %6.2f%%\n", 100*persistent.FR())
	fmt.Printf("SVF, transient single-use corruption  (§V-B blind spot): %6.2f%%\n", 100*transient.FR())
	// Output:
	// reuse fanout of scalarProd (reads of each produced value before overwrite):
	//   #0   S2R R0, SR_TID.X                         → 1 later reads
	//   #1   S2R R1, SR_CTAID.X                       → 1 later reads
	//   #3   LDC R3, c[0x0][3]                        → 2 later reads
	//   #4   IMUL R4, R1, R3                          → 2 later reads
	//   #5   LDC R5, c[0x0][1]                        → 1 later reads
	//   #7   LDC R7, c[0x0][2]                        → 1 later reads
	//   #10  MOV R10, R0                              → 1 later reads
	//   #13  ISCADD R11, R10, R6, 0x2                 → 1 later reads
	//   #14  LDG R12, [R11+0x0]                       → 1 later reads
	//   #15  ISCADD R13, R10, R8, 0x2                 → 1 later reads
	//   #16  LDG R14, [R13+0x0]                       → 1 later reads
	//   #18  IADD R10, R10, R2                        → 1 later reads
	//   #21  SHL R15, R0, 0x2                         → 1 later reads
	//   #24  MOV32I R16, 0x20                         → 1 later reads
	//   #29  IADD R17, R0, R16                        → 1 later reads
	//   #30  LDS R18, [R15+0x0]                       → 1 later reads
	//   #31  SHL R19, R17, 0x2                        → 1 later reads
	//   #32  LDS R20, [R19+0x0]                       → 1 later reads
	//   #33  FADD R21, R18, R20                       → 1 later reads
	//   #40  MOV32I R22, 0x0                          → 1 later reads
	//   #41  LDS R23, [R22+0x0]                       → 1 later reads
	//   #42  LDC R24, c[0x0][0]                       → 1 later reads
	//   #43  ISCADD R25, R1, R24, 0x2                 → 1 later reads
	// mean fanout: 0.83 reads per produced value
	// SVF, persistent destination corruption (NVBitFI model):  91.20%
	// SVF, transient single-use corruption  (§V-B blind spot):  76.40%
}
