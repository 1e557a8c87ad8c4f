package cpu

import (
	"math/rand"
	"testing"

	"lvmm/internal/bus"
	"lvmm/internal/isa"
)

// Differential testing: random straight-line ALU/memory programs are
// executed both by the interpreter and by a independent Go reference
// model; the final register files must agree. This catches decode,
// sign-extension, and operand-field mistakes that hand-written cases
// miss.

// refModel executes one instruction against a plain-Go semantic model.
type refModel struct {
	regs [16]uint32
	mem  map[uint32]uint32 // word-addressed scratch memory
}

func (r *refModel) set(reg int, v uint32) {
	if reg != 0 {
		r.regs[reg] = v
	}
}

func (r *refModel) exec(w uint32) {
	op := isa.Opcode(w)
	rd, rs1, rs2 := isa.Rd(w), isa.Rs1(w), isa.Rs2(w)
	a, b := r.regs[rs1], r.regs[rs2]
	imm := uint32(isa.Imm18(w))
	immU := isa.Imm18U(w)
	switch op {
	case isa.OpADD:
		r.set(rd, a+b)
	case isa.OpSUB:
		r.set(rd, a-b)
	case isa.OpAND:
		r.set(rd, a&b)
	case isa.OpOR:
		r.set(rd, a|b)
	case isa.OpXOR:
		r.set(rd, a^b)
	case isa.OpSHL:
		r.set(rd, a<<(b&31))
	case isa.OpSHR:
		r.set(rd, a>>(b&31))
	case isa.OpSRA:
		r.set(rd, uint32(int32(a)>>(b&31)))
	case isa.OpMUL:
		r.set(rd, a*b)
	case isa.OpDIVU:
		if b == 0 {
			r.set(rd, 0xFFFFFFFF)
		} else {
			r.set(rd, a/b)
		}
	case isa.OpREMU:
		if b == 0 {
			r.set(rd, a)
		} else {
			r.set(rd, a%b)
		}
	case isa.OpSLT:
		if int32(a) < int32(b) {
			r.set(rd, 1)
		} else {
			r.set(rd, 0)
		}
	case isa.OpSLTU:
		if a < b {
			r.set(rd, 1)
		} else {
			r.set(rd, 0)
		}
	case isa.OpADDI:
		r.set(rd, a+imm)
	case isa.OpANDI:
		r.set(rd, a&immU)
	case isa.OpORI:
		r.set(rd, a|immU)
	case isa.OpXORI:
		r.set(rd, a^immU)
	case isa.OpSHLI:
		r.set(rd, a<<(immU&31))
	case isa.OpSHRI:
		r.set(rd, a>>(immU&31))
	case isa.OpSRAI:
		r.set(rd, uint32(int32(a)>>(immU&31)))
	case isa.OpLUI:
		r.set(rd, immU<<14)
	case isa.OpSW:
		// Scratch region; addresses are pre-masked by the generator.
		r.mem[a+imm] = r.regs[rd]
	case isa.OpLW:
		r.set(rd, r.mem[a+imm])
	}
}

// genInstr produces a random safe instruction. Memory ops use r15 as a
// pre-pointed scratch base with word-aligned offsets.
func genInstr(rng *rand.Rand) uint32 {
	aluR := []uint32{isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSHL, isa.OpSHR, isa.OpSRA, isa.OpMUL, isa.OpDIVU, isa.OpREMU,
		isa.OpSLT, isa.OpSLTU}
	aluI := []uint32{isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI,
		isa.OpSHLI, isa.OpSHRI, isa.OpSRAI, isa.OpLUI}
	switch rng.Intn(4) {
	case 0:
		return isa.EncodeR(aluR[rng.Intn(len(aluR))],
			1+rng.Intn(13), 1+rng.Intn(13), 1+rng.Intn(13))
	case 1:
		op := aluI[rng.Intn(len(aluI))]
		imm := int32(rng.Uint32()) % (isa.MaxImm18 + 1)
		if op != isa.OpADDI && imm < 0 {
			imm = -imm // logical immediates are zero-extended; stay positive
		}
		return isa.EncodeI(op, 1+rng.Intn(13), 1+rng.Intn(13), imm)
	case 2:
		// sw rX, off(r15)
		return isa.EncodeI(isa.OpSW, 1+rng.Intn(13), 15, int32(rng.Intn(64))*4)
	default:
		// lw rX, off(r15)
		return isa.EncodeI(isa.OpLW, 1+rng.Intn(13), 15, int32(rng.Intn(64))*4)
	}
}

func TestDifferentialALU(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1FF))
	const scratch = 0x8000
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		prog := make([]uint32, n)
		for i := range prog {
			prog[i] = genInstr(rng)
		}

		// Interpreter.
		b := bus.New(1 << 17)
		c := New(b, 0x1000)
		for i, w := range prog {
			b.Write32(0x1000+uint32(i*4), w)
		}
		b.Write32(0x1000+uint32(n*4), isa.EncodeR(isa.OpHLT, 0, 0, 0))
		// Reference.
		ref := &refModel{mem: map[uint32]uint32{}}
		for i := 1; i < 15; i++ {
			v := rng.Uint32()
			c.Regs[i] = v
			ref.regs[i] = v
		}
		c.Regs[15] = scratch
		ref.regs[15] = scratch

		for _, w := range prog {
			ref.exec(w)
		}
		for step := 0; step < n+2; step++ {
			res := c.Step()
			if res.Trapped != isa.CauseNone {
				t.Fatalf("trial %d: unexpected trap %s at pc=%08x",
					trial, isa.CauseName(res.Trapped), c.PC)
			}
			if res.Halted {
				break
			}
		}
		for i := 0; i < 16; i++ {
			if c.Regs[i] != ref.regs[i] {
				t.Fatalf("trial %d: r%d interpreter=%08x reference=%08x\nprogram:\n%s",
					trial, i, c.Regs[i], ref.regs[i], disasmProg(prog))
			}
		}
	}
}

func disasmProg(prog []uint32) string {
	out := ""
	for i, w := range prog {
		out += isa.Disassemble(uint32(0x1000+i*4), w) + "\n"
	}
	return out
}

// TestTLBAliasing: two virtual pages that collide in the direct-mapped
// TLB must not serve each other's translations.
func TestTLBAliasing(t *testing.T) {
	b := bus.New(1 << 21)
	c := New(b, 0)
	pt := newPTBuilder(b, 0x100000)
	pt.mapRange(0, 0, 0x4000, isa.PTEPresent|isa.PTEWritable)
	// VPN 0x10 and VPN 0x10+512 collide in the 512-entry TLB.
	vaA := uint32(0x10 << 12)
	vaB := vaA + uint32(tlbEntries<<12)
	pt.mapPage(vaA, 0x20000, isa.PTEPresent|isa.PTEWritable)
	pt.mapPage(vaB, 0x30000, isa.PTEPresent|isa.PTEWritable)
	c.CR[isa.CRPtbr] = 0x100000 | 1

	b.Write32(0x20000, 0xAAAA)
	b.Write32(0x30000, 0xBBBB)

	read := func(va uint32) uint32 {
		pa, cause, _ := c.translate(va, false)
		if cause != isa.CauseNone {
			t.Fatalf("fault %s at %x", isa.CauseName(cause), va)
		}
		v, _ := b.Read32(pa)
		return v
	}
	if read(vaA) != 0xAAAA || read(vaB) != 0xBBBB || read(vaA) != 0xAAAA {
		t.Fatal("TLB aliasing between colliding VPNs")
	}
}

// TestJALRSameRegister: rd == rs1 must use the pre-write value as target.
func TestJALRSameRegister(t *testing.T) {
	b := bus.New(1 << 16)
	c := New(b, 0x1000)
	b.Write32(0x1000, isa.EncodeI(isa.OpJALR, 5, 5, 0)) // jalr r5, r5, 0
	c.Regs[5] = 0x2000
	c.Step()
	if c.PC != 0x2000 {
		t.Fatalf("pc=%08x, want 2000 (jumped to post-write value?)", c.PC)
	}
	if c.Regs[5] != 0x1004 {
		t.Fatalf("link=%08x", c.Regs[5])
	}
}

// TestMOVSZeroLength: a zero-length copy advances PC and costs base only.
func TestMOVSZeroLength(t *testing.T) {
	b := bus.New(1 << 16)
	c := New(b, 0x1000)
	b.Write32(0x1000, isa.EncodeR(isa.OpMOVS, 0, 0, 0))
	c.Regs[1], c.Regs[2], c.Regs[3] = 0x4000, 0x5000, 0
	res := c.Step()
	if res.Trapped != isa.CauseNone || c.PC != 0x1004 {
		t.Fatalf("trap=%s pc=%08x", isa.CauseName(res.Trapped), c.PC)
	}
	if res.Cycles != isa.MOVSCycles(0) {
		t.Fatalf("cycles %d", res.Cycles)
	}
}

// TestWedgedCPUFreezes: a wedged CPU makes no further progress.
func TestWedgedCPUFreezes(t *testing.T) {
	b := bus.New(1 << 16)
	c := New(b, 0x1000)
	b.Write32(0x1000, isa.EncodeR(isa.OpSYSCALL, 0, 0, 0))
	for i := 0; i < 5 && !c.Wedged(); i++ {
		c.Step()
	}
	if !c.Wedged() {
		t.Fatal("not wedged")
	}
	pc := c.PC
	res := c.Step()
	if res.Cycles != 0 || c.PC != pc || !res.Wedged {
		t.Fatal("wedged CPU made progress")
	}
}

// TestIOBitmapProperty: the bitmap grants exactly the ports allowed.
func TestIOBitmapProperty(t *testing.T) {
	var bm IOBitmap
	bm.Allow(0x300, 16)
	bm.Allow(0xC00, 16)
	for p := 0; p < 0x10000; p++ {
		want := (p >= 0x300 && p < 0x310) || (p >= 0xC00 && p < 0xC10)
		if bm.Allowed(uint16(p)) != want {
			t.Fatalf("port %x: allowed=%v want %v", p, bm.Allowed(uint16(p)), want)
		}
	}
}

// TestWatchpointFiresAfterStore: the store commits, then CauseWatch is
// raised with resume-after semantics.
func TestWatchpointFiresAfterStore(t *testing.T) {
	b := bus.New(1 << 16)
	c := New(b, 0x1000)
	b.Write32(0x1000, isa.EncodeI(isa.OpSW, 5, 0, 0x4000)) // sw r5, 0x4000(zero)
	b.Write32(0x1004, isa.EncodeR(isa.OpHLT, 0, 0, 0))
	c.Regs[5] = 0xFEED
	if err := c.SetWatchpoint(0, 0x4000, 4, true); err != nil {
		t.Fatal(err)
	}
	var hits []uint32
	c.Diverter = func(cause, vaddr, epc uint32) DivertAction {
		if cause == isa.CauseWatch {
			hits = append(hits, vaddr, epc)
			return DivertExit
		}
		return DivertReflect
	}
	res := c.Step()
	if res.Trapped != isa.CauseWatch {
		t.Fatalf("trapped %s", isa.CauseName(res.Trapped))
	}
	if v, _ := b.Read32(0x4000); v != 0xFEED {
		t.Fatal("store did not commit before the watch fired")
	}
	if len(hits) != 2 || hits[0] != 0x4000 || hits[1] != 0x1004 {
		t.Fatalf("hits %x", hits)
	}
	// Adjacent stores outside the range do not fire.
	c.PC = 0x1000
	c.Regs[5] = 1
	b.Write32(0x1000, isa.EncodeI(isa.OpSW, 5, 0, 0x4004))
	if res := c.Step(); res.Trapped != isa.CauseNone {
		t.Fatalf("adjacent store trapped %s", isa.CauseName(res.Trapped))
	}
}

// TestWatchpointCoversMOVS: a bulk copy into the watched range fires with
// restartable semantics.
func TestWatchpointCoversMOVS(t *testing.T) {
	b := bus.New(1 << 16)
	c := New(b, 0x1000)
	b.Write32(0x1000, isa.EncodeR(isa.OpMOVS, 0, 0, 0))
	b.Write32(0x1004, isa.EncodeR(isa.OpHLT, 0, 0, 0))
	c.Regs[1], c.Regs[2], c.Regs[3] = 0x4000, 0x6000, 64
	if err := c.SetWatchpoint(1, 0x4010, 4, true); err != nil {
		t.Fatal(err)
	}
	fired := 0
	c.Diverter = func(cause, vaddr, epc uint32) DivertAction {
		if cause == isa.CauseWatch {
			fired++
			return DivertExit
		}
		return DivertReflect
	}
	res := c.Step()
	if res.Trapped != isa.CauseWatch || fired != 1 {
		t.Fatalf("trapped=%s fired=%d", isa.CauseName(res.Trapped), fired)
	}
	// The copy is fully committed for the chunk (same page): 64 bytes.
	if c.Regs[3] != 0 {
		t.Fatalf("remaining %d", c.Regs[3])
	}
}

// TestWatchpointCoversSTOS: a bulk fill over the watched range fires with
// the same restartable semantics as MOVS — the chunk commits, the
// progress registers advance, and the trap names the stos as its epc.
func TestWatchpointCoversSTOS(t *testing.T) {
	b := bus.New(1 << 16)
	c := New(b, 0x1000)
	b.Write32(0x1000, isa.EncodeR(isa.OpSTOS, 0, 0, 0))
	b.Write32(0x1004, isa.EncodeR(isa.OpHLT, 0, 0, 0))
	b.Write32(0x4010, 0xFFFFFFFF)
	c.Regs[1], c.Regs[2], c.Regs[3] = 0x4000, 0, 64
	if err := c.SetWatchpoint(1, 0x4010, 4, true); err != nil {
		t.Fatal(err)
	}
	var hits []uint32
	c.Diverter = func(cause, vaddr, epc uint32) DivertAction {
		if cause == isa.CauseWatch {
			hits = append(hits, vaddr, epc)
			return DivertExit
		}
		return DivertReflect
	}
	res := c.Step()
	if res.Trapped != isa.CauseWatch || len(hits) != 2 {
		t.Fatalf("trapped=%s hits=%x", isa.CauseName(res.Trapped), hits)
	}
	if hits[0] != 0x4010 || hits[1] != 0x1000 {
		t.Fatalf("watch vaddr/epc = %#x/%#x, want 0x4010/0x1000", hits[0], hits[1])
	}
	if v, _ := b.Read32(0x4010); v != 0 {
		t.Fatalf("fill did not commit before the watch fired: %#x", v)
	}
	if c.Regs[1] != 0x4040 || c.Regs[3] != 0 {
		t.Fatalf("progress registers r1=%#x r3=%d, want 0x4040/0", c.Regs[1], c.Regs[3])
	}
}
