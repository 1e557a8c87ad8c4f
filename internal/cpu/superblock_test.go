package cpu

import (
	"math/rand"
	"sync"
	"testing"

	"lvmm/internal/bus"
	"lvmm/internal/isa"
)

// The superblock tier must be invisible to the timeline: everything it
// executes has to be bit-identical — registers, PC, trap causes, cycle
// charges, TLB fill state, statistics — to the same ticks run through the
// slow per-instruction engine. These tests exercise the tier's own
// machinery (formation, negative caching, chaining, severing, the batched
// self-loop) and enforce equivalence with burst-vs-step differentials.

// burstVsStep drives fast through BurstRun (chained superblocks) and slow
// through plain Step for exactly the same tick counts, comparing complete
// state and accumulated cycle charges after every burst exit. Returns the
// total ticks consumed.
func burstVsStep(t *testing.T, slow, fast *CPU, horizon, maxTicks uint64) uint64 {
	t.Helper()
	var clkF, clkS, total uint64
	for total < maxTicks && clkF < horizon {
		if fast.Halted() || fast.Wedged() || !fast.BurstSafe() {
			break
		}
		n, brk := fast.BurstRun(&clkF, horizon, maxTicks-total, nil)
		if n == 0 && brk != BurstHorizon {
			t.Fatalf("BurstRun consumed no ticks (brk=%d)", brk)
		}
		total += n
		for i := uint64(0); i < n; i++ {
			clkS += slow.Step().Cycles
		}
		if ss, sf := slow.Snapshot(), fast.Snapshot(); ss != sf {
			t.Fatalf("state diverged after %d ticks (brk=%d):\n  slow: pc=%08x regs=%v stat=%+v\n  fast: pc=%08x regs=%v stat=%+v",
				total, brk, ss.PC, ss.Regs, ss.Stat, sf.PC, sf.Regs, sf.Stat)
		}
		if clkS != clkF {
			t.Fatalf("clock diverged after %d ticks: slow %d, fast %d", total, clkS, clkF)
		}
	}
	return total
}

// countingLoop is the canonical 2-op noMem self-loop: addi + bne, the
// shape the batched self-loop path batches.
const countingLoopIters = 1000

func loadCountingLoop(a, b *CPU, base uint32) {
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpBNE, 1, 2, -2), // loop while r1 != r2
		isa.EncodeR(isa.OpHLT, 0, 0, 0),
	}
	loadBoth(a, b, base, words)
	a.Regs[2], b.Regs[2] = countingLoopIters, countingLoopIters
}

func TestSuperblockFormation(t *testing.T) {
	const base = 0x1000
	c := New(bus.New(1<<20), base)
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpADDI, 2, 2, 2),
		isa.EncodeI(isa.OpLW, 3, 15, 0), // memory op: block stays buildable, noMem false
		isa.EncodeI(isa.OpBNE, 1, 2, -4),
	}
	for i, w := range words {
		c.Bus().Write32(base+uint32(i)*4, w)
	}
	b := c.sbLookup(base)
	if b == nil {
		t.Fatal("no block built for a 4-op straight-line run")
	}
	if b.n != 4 || b.body != 3 || !b.term || b.noMem {
		t.Fatalf("block shape: n=%d body=%d term=%v noMem=%v, want 4,3,true,false", b.n, b.body, b.term, b.noMem)
	}
	wantMax := 2*uint64(isa.CycALU) + (isa.CycLoad + sbMemMax) + uint64(isa.CycTaken)
	if b.cycMax != wantMax {
		t.Fatalf("cycMax = %d, want %d", b.cycMax, wantMax)
	}
	if got := c.SBStats().Built; got != 1 {
		t.Fatalf("Built = %d, want 1", got)
	}
	// Second lookup returns the cached block without rebuilding.
	if b2 := c.sbLookup(base); b2 != b {
		t.Fatal("second lookup did not return the cached block")
	}
	if got := c.SBStats().Built; got != 1 {
		t.Fatalf("Built after cached lookup = %d, want 1", got)
	}
}

func TestSuperblockNoMemCycTaken(t *testing.T) {
	const base = 0x1000
	c := New(bus.New(1<<20), base)
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpBNE, 1, 2, -2),
	}
	for i, w := range words {
		c.Bus().Write32(base+uint32(i)*4, w)
	}
	b := c.sbLookup(base)
	if b == nil || !b.noMem || !b.term {
		t.Fatalf("block = %+v, want a noMem terminated block", b)
	}
	if want := uint64(isa.CycALU) + uint64(isa.CycTaken); b.cycTaken != want {
		t.Fatalf("cycTaken = %d, want %d", b.cycTaken, want)
	}
}

func TestSuperblockNegativeCache(t *testing.T) {
	const base = 0x1000
	c := New(bus.New(1<<20), base)
	// One straight-line op then a privileged op: run length 1 < sbMinLen.
	c.Bus().Write32(base, isa.EncodeI(isa.OpADDI, 1, 1, 1))
	c.Bus().Write32(base+4, isa.EncodeR(isa.OpHLT, 0, 0, 0))
	if b := c.sbLookup(base); b != nil {
		t.Fatalf("block built from a 1-op run: %+v", b)
	}
	if got := c.SBStats().Built; got != 0 {
		t.Fatalf("Built = %d, want 0 (negative entries are not built blocks)", got)
	}
	// The negative result is cached: the entry exists with n == 0.
	sp := c.sbPages[base>>isa.PageShift]
	if sp == nil {
		t.Fatal("no sbPage allocated")
	}
	neg := sp.blocks[(base&isa.PageMask)>>2]
	if neg == nil || neg.n != 0 {
		t.Fatalf("negative entry not cached: %+v", neg)
	}
	if b := c.sbLookup(base); b != nil {
		t.Fatal("negative entry did not stick")
	}
}

func TestSuperblockBatchedSelfLoopExact(t *testing.T) {
	const base = 0x1000
	slow, fast := twinCPUs(1<<20, base)
	loadCountingLoop(slow, fast, base)
	// Generous budget and horizon: the loop runs to its untaken exit and
	// the HLT ends the burst. Both engines must agree tick for tick.
	burstVsStep(t, slow, fast, 1<<62, 1<<62)
	if fast.Regs[1] != countingLoopIters {
		t.Fatalf("r1 = %d, want %d", fast.Regs[1], countingLoopIters)
	}
	if !fast.Halted() {
		t.Fatal("loop did not reach HLT")
	}
	if s := fast.SBStats(); s.ChainHits == 0 {
		t.Fatalf("self-loop never chained: %+v", s)
	}
}

func TestSuperblockBatchedSelfLoopBudgetCap(t *testing.T) {
	// Tick budgets that land mid-loop, mid-block-entry, and on block
	// boundaries: the batched path must consume exactly the granted ticks
	// (rounded down to whole blocks) and leave state identical to the
	// slow engine at the same tick count.
	for _, budget := range []uint64{1, 2, 3, 7, 50, 51, 1999, 2000} {
		const base = 0x1000
		slow, fast := twinCPUs(1<<20, base)
		loadCountingLoop(slow, fast, base)
		burstVsStep(t, slow, fast, 1<<62, budget)
	}
}

func TestSuperblockBatchedSelfLoopHorizonCap(t *testing.T) {
	// Horizons that land inside the loop: the batched iteration cap must
	// stop the loop before any iteration could cross the horizon, exactly
	// where the per-instruction engine would surface.
	for _, horizon := range []uint64{1, 3, 5, 16, 17, 100, 999} {
		const base = 0x1000
		slow, fast := twinCPUs(1<<20, base)
		loadCountingLoop(slow, fast, base)
		burstVsStep(t, slow, fast, horizon, 1<<62)
	}
}

func TestSuperblockJALInfiniteLoop(t *testing.T) {
	// A JAL self-loop never exits by itself; only the budget stops it.
	// The batched path must retire exactly the budgeted ticks.
	const base = 0x1000
	slow, fast := twinCPUs(1<<20, base)
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 3),
		isa.EncodeJ(isa.OpJAL, 0, -2),
	}
	loadBoth(slow, fast, base, words)
	n := burstVsStep(t, slow, fast, 1<<62, 2001)
	if n != 2001 {
		t.Fatalf("consumed %d ticks, want the full 2001 budget", n)
	}
}

func TestSuperblockJALLinkRegister(t *testing.T) {
	// A linking JAL self-loop must write the link register every
	// iteration, exactly like the slow engine (the batched arm still
	// performs the write).
	const base = 0x1000
	slow, fast := twinCPUs(1<<20, base)
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeJ(isa.OpJAL, 5, -2),
	}
	loadBoth(slow, fast, base, words)
	burstVsStep(t, slow, fast, 1<<62, 501)
	if want := uint32(base + 8); fast.Regs[5] != want {
		t.Fatalf("link register r5 = %#x, want %#x", fast.Regs[5], want)
	}
}

func TestSuperblockSMCMidBlock(t *testing.T) {
	// A store inside a block overwrites a later instruction of the same
	// block (mid-block invalidation): the epoch check after the memory op
	// must abandon the stale tail and re-decode, exactly like the slow
	// engine's refetch.
	const base = 0x1000
	slow, fast := twinCPUs(1<<20, base)
	patch := isa.EncodeI(isa.OpADDI, 3, 3, 100)
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1), // block op 0
		isa.EncodeI(isa.OpSW, 14, 15, 0), // stores the patch over op 2
		isa.EncodeI(isa.OpADDI, 3, 3, 1), // will be replaced by +100
		isa.EncodeI(isa.OpBNE, 1, 2, -4), // loop
		isa.EncodeR(isa.OpHLT, 0, 0, 0),
	}
	loadBoth(slow, fast, base, words)
	for _, c := range []*CPU{slow, fast} {
		c.Regs[2] = 5           // 5 iterations
		c.Regs[14] = patch      // the word the SW writes
		c.Regs[15] = base + 2*4 // target: op 2 of the block itself
	}
	burstVsStep(t, slow, fast, 1<<62, 1<<62)
	if !fast.Halted() {
		t.Fatal("program did not halt")
	}
	// The store precedes the patched op in program order, so every pass —
	// including the first — must execute the +100: the predecoded +1 in
	// the block tail is stale the moment the store lands.
	if want := uint32(5 * 100); fast.Regs[3] != want {
		t.Fatalf("r3 = %d, want %d (SMC patch not observed)", fast.Regs[3], want)
	}
}

func TestSuperblockChainingAndSevering(t *testing.T) {
	const base = 0x1000
	// Two blocks on different pages, chained into a loop:
	//   A: addi r1; b B        (page 1)
	//   B: addi r3; bne r1,r2,A; hlt  (page 2)
	const blockA, blockB = base, base + 0x1000
	slow, fast := twinCPUs(1<<20, blockA)
	loadBoth(slow, fast, blockA, []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeJ(isa.OpJAL, 0, (blockB-blockA-8)/4), // jal at A+4: tgt = pc+4+imm*4
	})
	loadBoth(slow, fast, blockB, []uint32{
		isa.EncodeI(isa.OpADDI, 3, 3, 1),
		isa.EncodeI(isa.OpBNE, 1, 2, (blockA-blockB-8)/4), // bne at B+4
		isa.EncodeR(isa.OpHLT, 0, 0, 0),
	})
	slow.Regs[2], fast.Regs[2] = 1000, 1000

	// Phase 1: run most of the loop; the A→B and B→A edges go hot and
	// chain (sbChainMin taken exits each).
	burstVsStep(t, slow, fast, 1<<62, 3000)
	s := fast.SBStats()
	if s.ChainHits == 0 {
		t.Fatalf("cross-page loop never chained: %+v", s)
	}

	// Phase 2: DMA new code over block B's page mid-loop — the chain edge
	// into it must sever, and execution must pick up the new body.
	patch := isa.EncodeI(isa.OpADDI, 3, 3, 50)
	w := []byte{byte(patch), byte(patch >> 8), byte(patch >> 16), byte(patch >> 24)}
	slow.Bus().DMAWrite(blockB, w)
	fast.Bus().DMAWrite(blockB, w)
	burstVsStep(t, slow, fast, 1<<62, 1<<62)
	if !fast.Halted() {
		t.Fatal("loop did not halt")
	}
	if fast.Regs[1] != 1000 {
		t.Fatalf("r1 = %d, want 1000", fast.Regs[1])
	}
	if s := fast.SBStats(); s.Severed == 0 {
		t.Fatalf("invalidated chain target never severed: %+v", s)
	}
}

func TestSuperblockBumpsDamping(t *testing.T) {
	const base = 0x1000
	c := New(bus.New(1<<20), base)
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpBNE, 1, 2, -2),
	}
	for i, w := range words {
		c.Bus().Write32(base+uint32(i)*4, w)
	}
	// Build/invalidate cycles: after sbMaxBumps invalidations the page
	// refuses further builds until the next generation reset.
	for i := 0; i < sbMaxBumps; i++ {
		if c.sbLookup(base) == nil {
			t.Fatalf("build %d refused before the damping threshold", i)
		}
		sbInvalidatePage(c.sbPages[base>>isa.PageShift])
	}
	if c.sbLookup(base) != nil {
		t.Fatal("page still builds blocks past sbMaxBumps invalidations")
	}
	// A generation flush (Restore path) resets the pressure counter.
	c.dcFlush()
	if c.sbLookup(base) == nil {
		t.Fatal("generation reset did not clear the damping counter")
	}
}

// TestSuperblockChainInvalidationUnderRace runs chained, self-modifying
// guests on parallel worker goroutines the way the fleet does (private
// machine per worker, no sharing). Under -race this exercises the chain
// build/sever/invalidate paths for cross-goroutine misuse introduced by
// future refactors (e.g. a shared block pool).
func TestSuperblockChainInvalidationUnderRace(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			const base = 0x1000
			slow, fast := twinCPUs(1<<20, base)
			loadCountingLoop(slow, fast, base)
			var clkF, clkS uint64
			rng := rand.New(rand.NewSource(seed))
			for total := uint64(0); total < 4000; {
				if fast.Halted() || fast.Wedged() {
					break
				}
				n, _ := fast.BurstRun(&clkF, 1<<62, 1+uint64(rng.Intn(97)), nil)
				total += n
				for i := uint64(0); i < n; i++ {
					clkS += slow.Step().Cycles
				}
				if ss, sf := slow.Snapshot(), fast.Snapshot(); ss != sf || clkS != clkF {
					t.Errorf("worker %d diverged at tick %d", seed, total)
					return
				}
				if rng.Intn(4) == 0 {
					// Invalidate the loop page under the chain (rewrite the
					// same word: the timeline is unchanged, the caches are not).
					w := isa.EncodeI(isa.OpADDI, 1, 1, 1)
					slow.Bus().Write32(base, w)
					fast.Bus().Write32(base, w)
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// genChainInstr draws instructions for the superblock fuzzer: the mix
// leans branch-heavy (short backward loops chain and batch) and includes
// stores through r14 into the code page itself (SMC and mid-block
// invalidation) as well as ordinary scratch memory traffic. Every
// straight-line op is drawn, so each superblock body and batched
// self-loop arm is compared against Step. ANDI/ORI/XORI results feed the
// register forms small, zero and ≥ 32 operands (zero DIVU/REMU divisors,
// shift counts the &31 mask must cut), and JALR jumps through r14 (the
// code page base) back into the program. Selectors 0–11 keep their
// original meaning, so the commented seeds below decode as described.
func genChainInstr(sel, a, b byte) uint32 {
	r1, r2 := 1+int(a)%13, 1+int(b)%13
	pick := func(ops ...uint32) uint32 { return ops[int(a)%len(ops)] }
	switch sel % 19 {
	case 0, 1, 2:
		alu := pick(isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLT, isa.OpSLTU, isa.OpMUL)
		return isa.EncodeR(alu, r1, r2, 1+int(sel)%13)
	case 3, 4:
		return isa.EncodeI(isa.OpADDI, r1, r2, int32(int8(b)))
	case 5:
		// Backward branch: a short loop over the preceding ops. The tick
		// budget bounds infinite loops.
		return isa.EncodeI(isa.OpBNE, r1, r2, -1-int32(a%6))
	case 6:
		return isa.EncodeI(isa.OpBEQ, r1, r2, int32(b%8))
	case 7:
		return isa.EncodeJ(isa.OpJAL, 0, int32(a%4))
	case 8:
		// Store into the code page (r14 points there): SMC.
		return isa.EncodeI(isa.OpSW, r1, 14, int32(b%32)*4)
	case 9:
		return isa.EncodeI(isa.OpSW, r1, 15, int32(b%64)*4)
	case 10:
		return isa.EncodeI(isa.OpLW, r1, 15, int32(b%64)*4)
	case 11:
		return isa.EncodeI(isa.OpADDI, r1, r1, 1)
	case 12:
		return isa.EncodeR(pick(isa.OpSHL, isa.OpSHR, isa.OpSRA), r1, r2, 1+int(sel)%13)
	case 13:
		return isa.EncodeR(pick(isa.OpDIVU, isa.OpREMU), r1, r2, 1+int(b/13)%13)
	case 14:
		return isa.EncodeI(pick(isa.OpANDI, isa.OpORI, isa.OpXORI), r1, r2, int32(b))
	case 15:
		// Immediate shift amounts above 31 probe the count mask.
		return isa.EncodeI(pick(isa.OpSHLI, isa.OpSHRI, isa.OpSRAI), r1, r2, int32(b%64))
	case 16:
		return isa.EncodeI(isa.OpLUI, r1, 0, int32(a)<<8|int32(b))
	case 17:
		// Signed and unsigned compares, backward (a loop) or forward.
		return isa.EncodeI(pick(isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU), r1, r2, int32(b%8)-4)
	default:
		return isa.EncodeI(isa.OpJALR, r1, 14, int32(b%32)*4)
	}
}

// superblockDiffBody is the fuzz differential: build a program from the
// raw bytes, run it through BurstRun (superblocks, chains, batched
// self-loops) and plain Step in lockstep, and require bit-identical state
// and cycle charges at every burst boundary.
func superblockDiffBody(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	const progBase, scratch, handler = 0x1000, 0x8000, 0x3000
	slow, fast := twinCPUs(1<<20, progBase)
	for v := uint32(0); v < isa.NumVectors; v++ {
		slow.Bus().Write32(v*4, handler)
		fast.Bus().Write32(v*4, handler)
	}
	loadBoth(slow, fast, handler, []uint32{isa.EncodeR(isa.OpHLT, 0, 0, 0)})

	words := make([]uint32, 0, len(data)/3+1)
	for i := 0; i+2 < len(data); i += 3 {
		words = append(words, genChainInstr(data[i], data[i+1], data[i+2]))
	}
	words = append(words, isa.EncodeR(isa.OpHLT, 0, 0, 0))
	loadBoth(slow, fast, progBase, words)

	for r := 1; r < 14; r++ {
		v := uint32(r) * 0x01010101
		slow.Regs[r], fast.Regs[r] = v, v
	}
	slow.Regs[14], fast.Regs[14] = progBase, progBase
	slow.Regs[15], fast.Regs[15] = scratch, scratch

	burstVsStep(t, slow, fast, 1<<62, 3000)
}

func FuzzSuperblockDiff(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 5, 1, 2})    // ALU + backward branch
	f.Add([]byte{8, 200, 1, 11, 0, 0, 5, 2, 0}) // SMC store + loop
	f.Add([]byte{11, 0, 0, 5, 13, 1})           // tight addi/bne self-loop
	f.Add([]byte{7, 1, 1, 7, 2, 2, 5, 9, 9})    // jumps + branch

	// divu/remu by zero, shl by 42 and sltu in a batched bgeu self-loop.
	f.Add([]byte{14, 0, 0, 14, 4, 40, 13, 1, 4, 13, 2, 4, 69, 3, 4, 2, 6, 2, 17, 15, 8})
	// lui and shri by 40 in a jalr loop.
	f.Add([]byte{16, 1, 2, 15, 1, 40, 18, 0, 0})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 12+rng.Intn(60))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(superblockDiffBody)
}

// TestSuperblockDiffSeeds pins the fuzzer's deterministic seed corpus as
// a plain test, so `go test` exercises the differential even when the
// fuzz engine is not invoked.
func TestSuperblockDiffSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		data := make([]byte, 9+rng.Intn(90))
		rng.Read(data)
		superblockDiffBody(t, data)
	}
}
