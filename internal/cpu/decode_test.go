package cpu

import (
	"math/rand"
	"testing"

	"lvmm/internal/bus"
	"lvmm/internal/isa"
)

// The predecoded fast path must be bit-identical to the slow path: same
// register file, same PC, same trap causes, same cycle charges, same TLB
// fill state, same statistics. These tests run the two engines in lockstep
// on shared-nothing twin machines and compare full snapshots after every
// instruction.

// twinCPUs builds two CPUs on independent buses with identical contents.
func twinCPUs(ramSize int, resetPC uint32) (*CPU, *CPU) {
	bs := bus.New(ramSize)
	bf := bus.New(ramSize)
	return New(bs, resetPC), New(bf, resetPC)
}

// loadBoth writes the same words into both buses.
func loadBoth(a, b *CPU, addr uint32, words []uint32) {
	for i, w := range words {
		a.Bus().Write32(addr+uint32(i)*4, w)
		b.Bus().Write32(addr+uint32(i)*4, w)
	}
}

// stepFast runs one instruction on the predecoded engine: a one-tick
// BurstRun budget, which no superblock fits (blocks need at least
// sbMinLen ≥ 2 ticks), so it exercises the per-instruction dispatch.
// Returns the cycles charged and why the burst stopped.
func stepFast(c *CPU) (uint64, BurstBreak) {
	var clk uint64
	_, brk := c.BurstRun(&clk, ^uint64(0), 1, nil)
	return clk, brk
}

// stepMatches reports whether a one-tick burst agrees with Step's result:
// the same cycles, and a BurstTrap exactly when Step trapped. Halt and
// wedge state are part of the Snapshot comparison.
func stepMatches(rs StepResult, cyc uint64, brk BurstBreak) bool {
	return cyc == rs.Cycles && (brk == BurstTrap) == (rs.Trapped != isa.CauseNone)
}

// lockstep runs slow (Step) and fast (one-tick BurstRun) engines side by
// side for at most maxSteps, comparing results and complete state after
// every step. Returns the number of steps taken.
func lockstep(t *testing.T, slow, fast *CPU, maxSteps int) int {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		if slow.Halted() || slow.Wedged() {
			if fast.Halted() != slow.Halted() || fast.Wedged() != slow.Wedged() {
				t.Fatalf("step %d: halt/wedge state diverged: slow (%v,%v) fast (%v,%v)",
					i, slow.Halted(), slow.Wedged(), fast.Halted(), fast.Wedged())
			}
			return i
		}
		rs := slow.Step()
		cyc, brk := stepFast(fast)
		if !stepMatches(rs, cyc, brk) {
			t.Fatalf("step %d (pc=%08x): result diverged:\n  slow: %+v\n  fast: cycles=%d break=%d",
				i, slow.PC, rs, cyc, brk)
		}
		ss, sf := slow.Snapshot(), fast.Snapshot()
		if ss != sf {
			t.Fatalf("step %d: state diverged:\n  slow: pc=%08x regs=%v stat=%+v\n  fast: pc=%08x regs=%v stat=%+v",
				i, ss.PC, ss.Regs, ss.Stat, sf.PC, sf.Regs, sf.Stat)
		}
	}
	return maxSteps
}

// genMixedInstr produces a random instruction drawn from the full
// straight-line set plus branches, jumps, and occasional garbage words
// (which must raise identical #UD traps on both engines).
func genMixedInstr(rng *rand.Rand, progLen int) uint32 {
	aluR := []uint32{isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSHL, isa.OpSHR, isa.OpSRA, isa.OpMUL, isa.OpDIVU, isa.OpREMU,
		isa.OpSLT, isa.OpSLTU}
	aluI := []uint32{isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI,
		isa.OpSHLI, isa.OpSHRI, isa.OpSRAI, isa.OpLUI}
	switch rng.Intn(12) {
	case 0, 1, 2:
		return isa.EncodeR(aluR[rng.Intn(len(aluR))],
			1+rng.Intn(13), 1+rng.Intn(13), 1+rng.Intn(13))
	case 3, 4, 5:
		op := aluI[rng.Intn(len(aluI))]
		imm := int32(rng.Uint32()) % (isa.MaxImm18 + 1)
		if op != isa.OpADDI && imm < 0 {
			imm = -imm
		}
		return isa.EncodeI(op, 1+rng.Intn(13), 1+rng.Intn(13), imm)
	case 6:
		// Store to the scratch region based at r15.
		sops := []uint32{isa.OpSW, isa.OpSH, isa.OpSB}
		return isa.EncodeI(sops[rng.Intn(3)], 1+rng.Intn(13), 15, int32(rng.Intn(64))*4)
	case 7:
		lops := []uint32{isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU}
		return isa.EncodeI(lops[rng.Intn(5)], 1+rng.Intn(13), 15, int32(rng.Intn(64))*4)
	case 8:
		// Forward branch within the program (taken or not, both engines
		// must agree on the displacement arithmetic).
		bops := []uint32{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU}
		return isa.EncodeI(bops[rng.Intn(6)], 1+rng.Intn(13), 1+rng.Intn(13),
			int32(rng.Intn(8)))
	case 9:
		// jal with a small forward hop.
		return isa.EncodeJ(isa.OpJAL, 1+rng.Intn(13), int32(rng.Intn(4)))
	case 10:
		// Unaligned load: both engines must raise the same #ALIGN.
		return isa.EncodeI(isa.OpLW, 1+rng.Intn(13), 15, int32(rng.Intn(16)*4+2))
	default:
		// Garbage opcode: #UD through the slow interpreter arm on both.
		return (uint32(isa.NumOpcodes) + rng.Uint32()%10) << 26
	}
}

// TestStepFastMatchesStepDifferential runs many random programs through
// both engines in lockstep. Traps vector to a handler that halts, so every
// program ends after at most one trap with full state comparable.
func TestStepFastMatchesStepDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const progBase, scratch, handler = 0x1000, 0x8000, 0x3000
	for prog := 0; prog < 300; prog++ {
		slow, fast := twinCPUs(1<<20, progBase)
		// Vector table at 0 (reset VBAR): every cause → handler → HLT.
		for v := uint32(0); v < isa.NumVectors; v++ {
			slow.Bus().Write32(v*4, handler)
			fast.Bus().Write32(v*4, handler)
		}
		loadBoth(slow, fast, handler, []uint32{isa.EncodeR(isa.OpHLT, 0, 0, 0)})

		words := make([]uint32, 120)
		for i := range words {
			words[i] = genMixedInstr(rng, len(words))
		}
		words[len(words)-1] = isa.EncodeR(isa.OpHLT, 0, 0, 0)
		loadBoth(slow, fast, progBase, words)

		// Identical random register seeds; r15 points at scratch.
		for r := 1; r < 15; r++ {
			v := rng.Uint32()
			slow.Regs[r], fast.Regs[r] = v, v
		}
		slow.Regs[15], fast.Regs[15] = scratch, scratch

		lockstep(t, slow, fast, 400)
	}
}

// TestDecodeCacheSelfModifyingCode stores a new instruction word over an
// already-executed (and therefore cached) instruction and loops back over
// it: the second pass must execute the new word, exactly as the slow path's
// refetch would.
func TestDecodeCacheSelfModifyingCode(t *testing.T) {
	const progBase = 0x1000
	patched := isa.EncodeI(isa.OpADDI, 4, 4, 100) // addi r4, r4, 100

	prog := []uint32{
		// loop:  (entry at progBase)
		isa.EncodeI(isa.OpADDI, 4, 4, 1), // +0  patch slot: addi r4, r4, 1
		isa.EncodeI(isa.OpBNE, 5, 0, 3),  // +4  pass 1? → done (offset 3 → +0x14)
		isa.EncodeI(isa.OpSW, 3, 1, 0),   // +8  patch the slot
		isa.EncodeI(isa.OpADDI, 5, 5, 1), // +12 pass = 1
		isa.EncodeI(isa.OpBEQ, 0, 0, -5), // +16 back to loop
		isa.EncodeR(isa.OpHLT, 0, 0, 0),  // +20 done
	}

	slow, fast := twinCPUs(1<<20, progBase)
	loadBoth(slow, fast, progBase, prog)
	for _, c := range []*CPU{slow, fast} {
		c.Regs[1] = progBase // address of the patch slot
		c.Regs[3] = patched  // replacement word
	}

	n := lockstep(t, slow, fast, 100)
	if !fast.Halted() {
		t.Fatalf("program did not complete in %d steps (pc=%08x)", n, fast.PC)
	}
	// Pass 1 executes the original +1, pass 2 the patched +100.
	if fast.Regs[4] != 101 {
		t.Fatalf("self-modified loop: r4 = %d, want 101 (decode cache served a stale instruction)", fast.Regs[4])
	}
}

// TestDecodeCacheRemapMidBurst runs a loop through paging at a fixed
// virtual address, then remaps the virtual page to a different physical
// frame containing different code. Until the guest-visible TLB flush both
// engines must keep executing the stale translation's code; after it, the
// new frame's. The decode cache is physically indexed, so the flip is
// entirely the TLB's doing — and the engines must agree step for step.
func TestDecodeCacheRemapMidBurst(t *testing.T) {
	const (
		pdBase = 0x10000
		ptBase = 0x11000
		frameA = 0x20000
		frameB = 0x30000
		codeVA = 0x00400000 // PD index 1, PT index 0
	)
	codeA := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpBEQ, 0, 0, -2), // loop
	}
	codeB := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 2),
		isa.EncodeI(isa.OpBEQ, 0, 0, -2), // loop
	}

	slow, fast := twinCPUs(1<<20, codeVA)
	setup := func(c *CPU) {
		b := c.Bus()
		flags := isa.PTEPresent | isa.PTEWritable
		b.Write32(pdBase+1*4, ptBase|flags)
		b.Write32(ptBase+0*4, frameA|flags)
		c.CR[isa.CRPtbr] = pdBase | 1
		c.FlushTLB()
	}
	loadBoth(slow, fast, frameA, codeA)
	loadBoth(slow, fast, frameB, codeB)
	setup(slow)
	setup(fast)

	step := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			rs := slow.Step()
			if cyc, brk := stepFast(fast); !stepMatches(rs, cyc, brk) {
				t.Fatalf("engines diverged at pc=%08x: slow %+v fast cycles=%d break=%d", slow.PC, rs, cyc, brk)
			}
			if ss, sf := slow.Snapshot(), fast.Snapshot(); ss != sf {
				t.Fatalf("state diverged at pc=%08x: slow r1=%d fast r1=%d", ss.PC, ss.Regs[1], sf.Regs[1])
			}
		}
	}

	step(20) // 10 loop iterations of code A
	if fast.Regs[1] != 10 {
		t.Fatalf("after frame-A phase: r1 = %d, want 10", fast.Regs[1])
	}

	// Remap the PTE under the running loop — no TLB flush yet, so the
	// stale translation (and its cached decodes) must keep executing.
	slow.Bus().Write32(ptBase, frameB|isa.PTEPresent|isa.PTEWritable)
	fast.Bus().Write32(ptBase, frameB|isa.PTEPresent|isa.PTEWritable)
	step(10)
	if fast.Regs[1] != 15 {
		t.Fatalf("after stale-TLB phase: r1 = %d, want 15 (remap observed before TLB flush)", fast.Regs[1])
	}

	// The flush a guest's tlbinv would perform: now both engines must
	// fetch (and decode) from frame B.
	slow.FlushTLB()
	fast.FlushTLB()
	step(10)
	if fast.Regs[1] != 25 {
		t.Fatalf("after remap: r1 = %d, want 25 (decode cache ignored the new frame)", fast.Regs[1])
	}
}

// TestDecodeCacheDMAInvalidation overwrites cached instructions through the
// bus DMA path (as a device would) and checks the next execution decodes
// the new contents.
func TestDecodeCacheDMAInvalidation(t *testing.T) {
	const progBase = 0x1000
	slow, fast := twinCPUs(1<<20, progBase)
	loop := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpBEQ, 0, 0, -2),
	}
	loadBoth(slow, fast, progBase, loop)
	lockstep(t, slow, fast, 20)

	// DMA a different loop body over the cached page.
	newBody := isa.EncodeI(isa.OpADDI, 1, 1, 7)
	w := []byte{byte(newBody), byte(newBody >> 8), byte(newBody >> 16), byte(newBody >> 24)}
	slow.Bus().DMAWrite(progBase, w)
	fast.Bus().DMAWrite(progBase, w)

	r1 := fast.Regs[1]
	lockstep(t, slow, fast, 2) // addi (new), branch
	if fast.Regs[1] != r1+7 {
		t.Fatalf("after DMA overwrite: r1 advanced by %d, want 7", fast.Regs[1]-r1)
	}
}

// TestRestoreColdDecodeCache snapshots mid-loop, mutates the code, restores
// the pre-mutation state, and checks execution decodes the restored bytes —
// i.e. Restore leaves no stale decode state behind.
func TestRestoreColdDecodeCache(t *testing.T) {
	const progBase = 0x1000
	slow, fast := twinCPUs(1<<20, progBase)
	loop := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpBEQ, 0, 0, -2),
	}
	loadBoth(slow, fast, progBase, loop)
	lockstep(t, slow, fast, 10)

	snapS, snapF := slow.Snapshot(), fast.Snapshot()
	ramS := append([]byte(nil), slow.Bus().RAM()...)
	ramF := append([]byte(nil), fast.Bus().RAM()...)

	// Diverge: overwrite the loop with +50, run a bit (cache now holds the
	// new word).
	newBody := isa.EncodeI(isa.OpADDI, 1, 1, 50)
	slow.Bus().Write32(progBase, newBody)
	fast.Bus().Write32(progBase, newBody)
	lockstep(t, slow, fast, 10)

	// Rewind RAM and CPU to the snapshot; the decode cache must restart
	// cold rather than serve the +50 word.
	copy(slow.Bus().RAM(), ramS)
	copy(fast.Bus().RAM(), ramF)
	slow.Restore(snapS)
	fast.Restore(snapF)

	r1 := fast.Regs[1]
	lockstep(t, slow, fast, 20)
	if fast.Regs[1] != r1+10 {
		t.Fatalf("after restore: r1 advanced by %d over 10 iterations, want 10 (stale decode survived Restore)",
			fast.Regs[1]-r1)
	}
}

// TestBurstRunTickAccounting checks BurstRun's contract directly: tick
// counts, horizon, budget, and the executed-inline status of a BurstSync
// stop.
func TestBurstRunTickAccounting(t *testing.T) {
	const progBase = 0x1000
	c := New(bus.New(1<<20), progBase)
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeR(isa.OpHLT, 0, 0, 0),
	}
	for i, w := range words {
		c.Bus().Write32(progBase+uint32(i)*4, w)
	}

	// Budget stop: exactly 2 ticks consumed, 2 instructions retired (the
	// superblock tier must refuse the 3-op block against the 2-tick budget).
	var clk uint64
	n, brk := c.BurstRun(&clk, 1<<62, 2, nil)
	if n != 2 || brk != BurstBudget {
		t.Fatalf("budget burst: n=%d brk=%d, want 2, BurstBudget", n, brk)
	}
	if c.Stat.Instructions != 2 || c.Regs[1] != 2 {
		t.Fatalf("budget burst: instr=%d r1=%d", c.Stat.Instructions, c.Regs[1])
	}
	if clk != 2*isa.CycALU {
		t.Fatalf("budget burst: clk=%d", clk)
	}

	// Sync stop: the HLT executes inline on its own tick (nil resume, so
	// the burst surfaces right after).
	n, brk = c.BurstRun(&clk, 1<<62, 100, nil)
	if n != 2 || brk != BurstSync {
		t.Fatalf("sync burst: n=%d brk=%d, want 2, BurstSync", n, brk)
	}
	if !c.Halted() || c.PC != progBase+16 {
		t.Fatalf("BurstSync did not execute the slow op: halted=%v pc=%08x", c.Halted(), c.PC)
	}
	if c.Stat.Instructions != 4 || c.Regs[1] != 3 {
		t.Fatalf("sync burst: instr=%d r1=%d", c.Stat.Instructions, c.Regs[1])
	}

	// Horizon stop: a one-cycle horizon stops after a single instruction
	// (and refuses the block, whose worst-case sum would cross it).
	c2 := New(bus.New(1<<20), progBase)
	for i, w := range words {
		c2.Bus().Write32(progBase+uint32(i)*4, w)
	}
	clk = 0
	n, brk = c2.BurstRun(&clk, 1, 100, nil)
	if n != 1 || brk != BurstHorizon {
		t.Fatalf("horizon burst: n=%d brk=%d, want 1, BurstHorizon", n, brk)
	}
}
