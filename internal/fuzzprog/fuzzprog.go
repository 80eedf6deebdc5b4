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
// instructions over the full opcode set with stream-chosen operands,
// forward-only branches (so every program terminates or deadlocks on a
// barrier, never spins), and a terminating EXIT.
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
		isa.OpNOP, isa.OpBRA, isa.OpBAR,
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
