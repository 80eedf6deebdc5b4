// Package fuzzprog is test support: it turns a fuzzer's byte stream into a
// structurally valid program and wraps it in a small job, so the fuzz targets
// of internal/sim and internal/funcsim hold the cycle simulator's µop core,
// the functional executor and the exec.Step interpreter against each other
// on the same programs nobody hand-picked. The byte stream drives every
// structural choice directly, so the fuzzer's mutations explore the µop
// compiler's kind/operand space.
package fuzzprog

import (
	"gpurel/internal/device"
	"gpurel/internal/isa"
)

// Program decodes the fuzz byte stream into a valid program: up to 24
// instructions over the full opcode set with stream-chosen operands and
// guards, forward-only branches (so every program terminates or deadlocks on
// a barrier, never spins), and a terminating EXIT. An EXIT inside the
// program takes a guard like any other op, so some lanes of a warp can exit
// and the rest go on to a barrier or a divergent branch.
func Program(data []byte) *isa.Program {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	const nregs = 8
	reg := func() isa.Reg {
		if v := next(); v%9 == 8 {
			return isa.RZ
		} else {
			return isa.Reg(v % nregs)
		}
	}
	pred := func() isa.Pred { return isa.Pred(next() % 3) } // PT, P0, P1
	n := 1 + next()%24
	code := make([]isa.Instr, 0, n+1)
	ops := []isa.Op{
		isa.OpNOP, isa.OpBRA, isa.OpBAR, isa.OpEXIT,
		isa.OpS2R, isa.OpMOV, isa.OpMOVI, isa.OpLDC,
		isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMAD, isa.OpISCADD,
		isa.OpIMIN, isa.OpIMAX, isa.OpSHL, isa.OpSHR,
		isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFFMA, isa.OpFMIN, isa.OpFMAX,
		isa.OpMUFU, isa.OpI2F, isa.OpF2I,
		isa.OpISETP, isa.OpFSETP, isa.OpSEL,
		isa.OpLDG, isa.OpSTG, isa.OpLDS, isa.OpSTS, isa.OpLDT,
	}
	for pc := 0; pc < n; pc++ {
		ins := isa.Instr{
			Op:      ops[next()%len(ops)],
			Dst:     reg(),
			SrcA:    reg(),
			SrcB:    reg(),
			SrcC:    reg(),
			Pred:    pred(),
			PredNeg: next()%2 == 1,
			Imm:     int32(int8(next())),
		}
		switch ins.Op {
		case isa.OpBRA:
			// Forward-only: target and reconvergence strictly past this pc.
			span := n - pc // branches may land on the trailing EXIT at n
			ins.Target = pc + 1 + next()%span
			ins.Reconv = pc + 1 + next()%span
		case isa.OpISETP, isa.OpFSETP:
			ins.PDst = pred()
			ins.Cmp = isa.CmpOp(next() % int(isa.CmpNE+1))
			ins.CPred = pred()
			ins.CPredNeg = next()%2 == 1
			ins.BImm = next()%2 == 1
		case isa.OpSEL:
			ins.SelPred = pred()
			ins.SelPredNeg = next()%2 == 1
			ins.BImm = next()%2 == 1
		case isa.OpS2R:
			ins.Special = isa.SReg(next() % int(isa.SRLaneID+1))
		case isa.OpMUFU:
			ins.Mufu = isa.MufuOp(next() % int(isa.MufuLG2+1))
		case isa.OpISCADD:
			ins.Imm2 = uint8(next() % 32)
		case isa.OpLDC:
			ins.Imm = int32(next() % 4) // two real params; out-of-range reads too
		case isa.OpLDG, isa.OpSTG, isa.OpLDS, isa.OpSTS, isa.OpLDT:
			ins.Imm = int32(next()) * 4 // mostly-aligned small offsets
		case isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMAD,
			isa.OpIMIN, isa.OpIMAX, isa.OpSHL, isa.OpSHR,
			isa.OpAND, isa.OpOR, isa.OpXOR,
			isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFFMA, isa.OpFMIN, isa.OpFMAX:
			ins.BImm = next()%2 == 1
		}
		code = append(code, ins)
	}
	code = append(code, isa.Instr{Op: isa.OpEXIT})
	return &isa.Program{Name: "fuzz", NumRegs: nregs, Code: code}
}

// GuardedExit is a fuzz seed whose program exits half of each warp under a
// lane-dependent guard, takes the rest through a barrier, diverges them at a
// branch, and stores what both sides computed after they reconverge:
//
//	S2R R1, SR_LANEID; LDC R4, c[1]; ISCADD R5, R1, R4, 2
//	ISETP.LT P0, R1, 16; @P0 EXIT; BAR
//	ISETP.LT P1, R1, 24; @P1 BRA 9 (reconv 10); MOV32I R2, 5
//	IADD R3, R1, R2; STG [R5], R3; EXIT
//
// Guards read predicates that start clear and registers that start at zero,
// so random streams almost never split a warp at an EXIT: none of 20 000
// did. The fuzz targets start from this seed so that their mutations reach
// the path.
var GuardedExit = []byte{10,
	4, 1, 0, 0, 0, 0, 0, 0, 8,
	7, 4, 0, 0, 0, 0, 0, 0, 1,
	12, 5, 1, 4, 0, 0, 0, 0, 2,
	29, 0, 1, 0, 0, 0, 0, 16, 1, 0, 0, 0, 1,
	3, 0, 0, 0, 0, 1, 0, 0,
	2, 0, 0, 0, 0, 0, 0, 0,
	29, 0, 1, 0, 0, 0, 0, 24, 2, 0, 0, 0, 1,
	1, 0, 0, 0, 0, 2, 0, 0, 1, 2,
	6, 2, 0, 0, 0, 0, 0, 5,
	8, 3, 1, 2, 0, 0, 0, 0, 0,
	33, 0, 5, 3, 0, 0, 0, 0, 0,
}

// Job wraps a generated program into a two-CTA job with real global
// buffers (so loads off the parameter pointers see data) and shared memory.
func Job(prog *isa.Program) *device.Job {
	m := device.NewMemory(1 << 16)
	in := m.Alloc("in", 1024)
	out := m.Alloc("out", 1024)
	vals := make([]uint32, 256)
	for i := range vals {
		vals[i] = uint32(i)*2654435761 + 1
	}
	m.WriteU32s(in, vals)
	return &device.Job{
		Name: "fuzz", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 2, GridY: 1, BlockX: 64, BlockY: 1,
			SmemBytes: 256,
			Params:    []uint32{in, out}, ParamIsPtr: []bool{true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 1024}},
	}
}
