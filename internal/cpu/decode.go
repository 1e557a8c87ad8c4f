package cpu

import "lvmm/internal/isa"

// Predecoded execution engine.
//
// The interpreter's per-instruction cost is dominated by refetching and
// redecoding the same words over and over: a tight guest loop pays a bus
// read, an opcode extraction, and four field extractions on every trip.
// The decode cache removes that: instruction words are decoded once into
// physical-page-indexed arrays of predecoded micro-ops, and BurstRun
// dispatches on the cached form.
//
// The cache is indexed by *physical* page, so remapping a virtual page to
// a different frame, a TLB flush, or a PTBR change needs no invalidation —
// every fetch still translates its PC through the TLB (which also
// preserves TLB-miss cycle accounting exactly), and cached decodes are a
// pure function of RAM contents. Physical indexing is what makes the
// monitor's constant world-switch TLB flushes free for the decode cache;
// the virtually-indexed alternative re-decodes the working set on every
// switch (measured ~3× slower on the Figure 3.1 macro benchmark). What
// does invalidate a page:
//
//   - any write into it: CPU stores and page-walk A/D updates arrive via
//     the bus write-notify hook installed at construction; MOVS/STOS and
//     debugger WriteVirt patches invalidate directly (they bypass the bus
//     write path and write RAM in place); device DMA arrives via the bus
//     hook (bus.Write*/DMAWrite) or bus.NotifyWrite for in-place fills;
//   - Reset and Restore (the cache starts cold after a snapshot restore,
//     which is safe because decode state is invisible to the timeline: a
//     cold cache re-decodes but charges identical cycles).
//
// Nothing in the cache affects architectural state or cycle accounting, so
// slow-path and fast-path execution are bit-identical; the differential
// tests in decode_test.go enforce this instruction by instruction.

// Micro-op kinds. fnUnset marks an undecoded slot; fnSlow routes the word
// through the full interpreter switch (execute) and ends a burst — it
// covers every op that can touch machine-level state (port I/O, PSR/CR
// writes, HLT, traps, string ops) plus undefined encodings.
const (
	fnUnset uint8 = iota
	// fnPrivOp marks the unconditionally privileged ops (CLI, STI, IRET,
	// HLT, MOVCR, MOVRC, TLBINV): below monitor level they always raise
	// CausePriv, so BurstRun delivers that trap straight from the
	// dispatcher — precomputed base cycles in imm, vaddr from raw —
	// without the interpreter round trip. At monitor level they take the
	// fnSlow route through execute.
	fnPrivOp
	fnSlow

	// Straight-line ops: cannot halt, cannot change PSR/CRs, cannot touch
	// ports, cannot arm observers. A burst may continue after them.
	fnADD
	fnSUB
	fnAND
	fnOR
	fnXOR
	fnSHL
	fnSHR
	fnSRA
	fnSLT
	fnSLTU
	fnMUL
	fnDIVU
	fnREMU
	fnADDI
	fnANDI
	fnORI
	fnXORI
	fnSHLI
	fnSHRI
	fnSRAI
	fnLUI
	fnLW
	fnLH
	fnLHU
	fnLB
	fnLBU
	fnSW
	fnSH
	fnSB
	fnBEQ
	fnBNE
	fnBLT
	fnBGE
	fnBLTU
	fnBGEU
	fnJAL
	fnJALR
)

// decoded is one predecoded instruction: the dispatch kind, pre-extracted
// register fields, and the immediate in its ready-to-use form (sign- or
// zero-extended, pre-masked shift amounts, pre-shifted LUI value,
// pre-scaled branch/jump displacement including the +4). raw keeps the
// original word for the fnSlow path and for trap vaddr reporting.
type decoded struct {
	fn  uint8
	rd  uint8
	rs1 uint8
	rs2 uint8
	imm uint32
	raw uint32
}

// decPage holds the predecoded instructions of one physical page, decoded
// lazily as they are first executed. A page is live only while its gen
// matches the CPU's current decode generation.
type decPage struct {
	gen uint32
	ins [isa.PageSize / 4]decoded
}

// decodeWord predecodes one instruction word.
func decodeWord(w uint32) decoded {
	d := decoded{
		rd:  uint8(isa.Rd(w)),
		rs1: uint8(isa.Rs1(w)),
		rs2: uint8(isa.Rs2(w)),
		raw: w,
	}
	switch isa.Opcode(w) {
	case isa.OpADD:
		d.fn = fnADD
	case isa.OpSUB:
		d.fn = fnSUB
	case isa.OpAND:
		d.fn = fnAND
	case isa.OpOR:
		d.fn = fnOR
	case isa.OpXOR:
		d.fn = fnXOR
	case isa.OpSHL:
		d.fn = fnSHL
	case isa.OpSHR:
		d.fn = fnSHR
	case isa.OpSRA:
		d.fn = fnSRA
	case isa.OpSLT:
		d.fn = fnSLT
	case isa.OpSLTU:
		d.fn = fnSLTU
	case isa.OpMUL:
		d.fn = fnMUL
	case isa.OpDIVU:
		d.fn = fnDIVU
	case isa.OpREMU:
		d.fn = fnREMU
	case isa.OpADDI:
		d.fn, d.imm = fnADDI, uint32(isa.Imm18(w))
	case isa.OpANDI:
		d.fn, d.imm = fnANDI, isa.Imm18U(w)
	case isa.OpORI:
		d.fn, d.imm = fnORI, isa.Imm18U(w)
	case isa.OpXORI:
		d.fn, d.imm = fnXORI, isa.Imm18U(w)
	case isa.OpSHLI:
		d.fn, d.imm = fnSHLI, isa.Imm18U(w)&31
	case isa.OpSHRI:
		d.fn, d.imm = fnSHRI, isa.Imm18U(w)&31
	case isa.OpSRAI:
		d.fn, d.imm = fnSRAI, isa.Imm18U(w)&31
	case isa.OpLUI:
		d.fn, d.imm = fnLUI, isa.Imm18U(w)<<14
	case isa.OpLW:
		d.fn, d.imm = fnLW, uint32(isa.Imm18(w))
	case isa.OpLH:
		d.fn, d.imm = fnLH, uint32(isa.Imm18(w))
	case isa.OpLHU:
		d.fn, d.imm = fnLHU, uint32(isa.Imm18(w))
	case isa.OpLB:
		d.fn, d.imm = fnLB, uint32(isa.Imm18(w))
	case isa.OpLBU:
		d.fn, d.imm = fnLBU, uint32(isa.Imm18(w))
	case isa.OpSW:
		d.fn, d.imm = fnSW, uint32(isa.Imm18(w))
	case isa.OpSH:
		d.fn, d.imm = fnSH, uint32(isa.Imm18(w))
	case isa.OpSB:
		d.fn, d.imm = fnSB, uint32(isa.Imm18(w))
	case isa.OpBEQ:
		d.fn, d.imm = fnBEQ, uint32(isa.Imm18(w)*4+4)
	case isa.OpBNE:
		d.fn, d.imm = fnBNE, uint32(isa.Imm18(w)*4+4)
	case isa.OpBLT:
		d.fn, d.imm = fnBLT, uint32(isa.Imm18(w)*4+4)
	case isa.OpBGE:
		d.fn, d.imm = fnBGE, uint32(isa.Imm18(w)*4+4)
	case isa.OpBLTU:
		d.fn, d.imm = fnBLTU, uint32(isa.Imm18(w)*4+4)
	case isa.OpBGEU:
		d.fn, d.imm = fnBGEU, uint32(isa.Imm18(w)*4+4)
	case isa.OpJAL:
		d.fn, d.imm = fnJAL, uint32(isa.Imm22(w)*4+4)
	case isa.OpJALR:
		d.fn, d.imm = fnJALR, uint32(isa.Imm18(w))
	case isa.OpCLI, isa.OpSTI, isa.OpIRET, isa.OpHLT,
		isa.OpMOVCR, isa.OpMOVRC, isa.OpTLBINV:
		d.fn, d.imm = fnPrivOp, uint32(isa.OpCycles(isa.Opcode(w)))
	default:
		d.fn = fnSlow
	}
	return d
}

// decodeLookup returns the predecoded instruction at physical address pa,
// decoding (and allocating the page) on demand. nil means pa is not
// word-readable RAM — the caller raises the same bus error the slow-path
// fetch would.
func (c *CPU) decodeLookup(pa uint32) *decoded {
	pfn := pa >> isa.PageShift
	if pfn >= uint32(len(c.dcPages)) {
		return nil
	}
	pg := c.dcPages[pfn]
	if pg == nil || pg.gen != c.dcGen {
		pg = &decPage{gen: c.dcGen}
		c.dcPages[pfn] = pg
	}
	d := &pg.ins[(pa&isa.PageMask)>>2]
	if d.fn == fnUnset {
		w, ok := c.bus.Read32(pa)
		if !ok {
			return nil
		}
		*d = decodeWord(w)
	}
	return d
}

// dcInvalidate drops predecoded state covering [addr, addr+n). It is the
// bus write-notify hook, and is also called directly by the in-place RAM
// writers (MOVS/STOS, WriteVirt).
//
// Small writes (a store-sized span inside one page) clear just the touched
// entries, keeping the page live: guest kernels routinely pack data into
// the same 4 KB pages as code, and dropping the whole page on every such
// store re-allocates and re-decodes it in a ping-pong that dominated the
// macro benchmarks. Bulk writes (DMA, string ops) drop whole pages.
func (c *CPU) dcInvalidate(addr, n uint32) {
	if n == 0 {
		return
	}
	c.writeCov |= coverageBits(addr, n)
	if c.dirtyPages != nil {
		c.markDirty(addr, n)
	}
	first := addr >> isa.PageShift
	if first >= uint32(len(c.dcPages)) {
		return
	}
	if (addr&isa.PageMask)+n <= isa.PageSize && n <= 8 {
		i0 := (addr & isa.PageMask) >> 2
		i1 := ((addr & isa.PageMask) + n - 1) >> 2
		if pg := c.dcPages[first]; pg != nil {
			for i := i0; i <= i1; i++ {
				pg.ins[i].fn = fnUnset
			}
		}
		// Superblocks copy their micro-ops, so per-entry clearing cannot
		// reach them: bump the page epoch when the write lands inside the
		// extent its blocks were built from (chain edges into the page
		// validate against the same epoch).
		if sp := c.sbPages[first]; sp != nil && sp.gen == c.dcGen && sp.lo <= i1 && i0 <= sp.hi {
			sbInvalidatePage(sp)
		}
		return
	}
	last := (addr + n - 1) >> isa.PageShift
	if last >= uint32(len(c.dcPages)) {
		last = uint32(len(c.dcPages)) - 1
	}
	c.dcBulkGen++
	for p := first; p <= last; p++ {
		if c.dcPages[p] != nil {
			c.dcPages[p] = nil
		}
		if sp := c.sbPages[p]; sp != nil && sp.gen == c.dcGen {
			sbInvalidatePage(sp)
		}
	}
}

// dcFlush discards the whole decode cache by advancing the generation.
// Pages are re-decoded lazily on next execution; the allocations are
// reclaimed as lookups replace stale pages.
func (c *CPU) dcFlush() { c.dcGen++ }

// BurstSafe reports whether the CPU may execute predecoded straight-line
// bursts. Debug observers no longer disqualify bursts wholesale: hardware
// breakpoints are checked page-granularly inside BurstRun, and watch/spy
// ranges gate only the stores that could land in them (see observers.go).
// What still forces the per-instruction interpreter is the trap flag — TF
// is a per-instruction observer by definition — and the explicit
// ForceSlowEngine knob. The machine checks BurstSafe once per burst entry
// and after every fused trap; every operation that could set TF mid-burst
// reaches the CPU through a trap or an fnSlow instruction, both of which
// re-check before the burst continues.
func (c *CPU) BurstSafe() bool {
	return !c.forceSlow && c.PSR&isa.PSRTF == 0
}

// BurstBreak explains why BurstRun stopped.
type BurstBreak int

const (
	// BurstHorizon: the clock reached the event horizon.
	BurstHorizon BurstBreak = iota
	// BurstBudget: the tick budget (poll countdown / stop-at-instruction
	// allowance) ran out.
	BurstBudget
	// BurstSync: a slow instruction (port I/O, PSR/CR writes, HLT, string
	// ops, undefined encodings) was executed inline through the full
	// interpreter and machine-level state may have changed — halt, idle,
	// pending interrupts, new events. The caller re-establishes its
	// invariants before the next burst. (With a resume hook the burst
	// re-validates and continues in place; BurstSync surfaces only when
	// the hook is nil or declines.)
	BurstSync
	// BurstTrap: the last counted tick raised a trap (including fetch
	// faults). The caller must check Wedged and re-establish invariants.
	BurstTrap
)

// BurstResume is the inline diverter hook consulted when a trap raised
// mid-burst was fully handled by the Diverter (DivertResume): it decides
// whether the burst may continue predecoded and, if so, supplies a fresh
// event horizon — the monitor's cycle charges consumed part of the old one,
// and its emulation may have scheduled new device events or made an
// interrupt deliverable. Returning ok=false surfaces BurstTrap as before.
// The returned horizon must exceed the committed clock.
type BurstResume func() (horizon uint64, ok bool)

// BurstRun executes predecoded instructions until the clock (committed
// through clk after every instruction, so trap diverters and scheduled
// work observe exact time) reaches horizon, maxTicks ticks were consumed,
// an instruction traps, or a slow instruction resynchronizes with the
// machine. Returns the tick count consumed (every Step-equivalent,
// including a final faulting one) and the break reason.
//
// Slow instructions (port I/O, PSR/CR writes, HLT, string ops, undefined
// encodings) are executed inline through the full interpreter; afterwards
// the resume hook re-validates the machine's burst preconditions and
// supplies a fresh horizon — its emulated device work may have scheduled
// events or made an interrupt deliverable — so I/O-dense guests stay in
// the burst. A nil or declining hook surfaces BurstSync instead, with the
// slow instruction already retired on this tick.
//
// A trap consumed by the Diverter with DivertResume does not end the burst
// when resume grants a fresh horizon: delivery, monitor emulation, and the
// return to guest execution fuse into one crossing (nil resume restores
// the old always-exit behaviour). All other traps — architectural delivery,
// debug stops, faults reflected into the guest — surface as BurstTrap.
//
// Above the per-instruction path sits the superblock tier (superblock.go):
// straight-line runs dispatch as predecoded blocks with one fetch
// translation and one lookup per block entry, and hot taken edges chain
// block→block. Blocks never run on armed exec pages and bail to this loop
// on any invalidation, so the tier is invisible to the timeline.
//
// Preconditions: BurstSafe holds and the CPU is neither halted nor
// wedged; the caller guarantees *clk < horizon and maxTicks ≥ 1 on entry.
// Architectural effects and cycle charges are bit-identical to an
// equivalent sequence of Step calls — including hardware breakpoints,
// which are checked page-granularly: the armed-page test (execPageArmed)
// is evaluated once per fetch-page crossing, and only instructions on an
// armed page pay Step's exact per-slot PC comparison. A hit disarms the
// slot one-shot and raises CauseBRK exactly as Step would, so the burst
// surfaces at the breakpoint instruction instead of never starting.
func (c *CPU) BurstRun(clk *uint64, horizon, maxTicks uint64, resume BurstResume) (ticks uint64, brk BurstBreak) {
	n := uint64(0)
	defer func() { c.burstTicks += n }()
	// PTBR can only change through fnSlow ops or trap handlers; both
	// re-derive the paging mode before the burst continues, so pagingOff is
	// loop-invariant between them. The same holds for the cached armed-page
	// test (bpVPN/bpArmed): observer slots only mutate through trap
	// diverters or slow ops mid-burst, so every fused resume resets the
	// cache to noVPN alongside the horizon and paging mode.
	pagingOff := !c.PagingEnabled()
	bpVPN, bpArmed := noVPN, false
	// A chain-link request left by a previous call is meaningless now.
	c.sbLink = nil
	// pend carries fetch-translation cycles already charged by a refused
	// superblock chain follow; they commit with the next instruction.
	var pend uint64
	// Register-cached decode page: fetches within one physical page skip
	// decodeLookup's dcPages load chain. The cache is sound while both
	// generations hold — dcGen catches flushes (a diverter's Restore),
	// dcBulkGen catches bulk invalidations that drop page objects (and so
	// also every path that could replace a live page object, since
	// replacement needs a nil or stale-gen slot). The in-place
	// invalidations that remain (aligned stores and page-walk A/D updates)
	// clear entries to fnUnset, which the re-decode below handles. cpg is
	// non-nil whenever cpfn is a real page number.
	cpfn := ^uint32(0)
	var cpg *decPage
	var cgen, cbgen uint32
	for {
		if n >= maxTicks {
			return n, BurstBudget
		}
		instPC := c.PC
		if c.hwBreakAny {
			if vpn := instPC >> isa.PageShift; vpn != bpVPN {
				bpVPN, bpArmed = vpn, c.execPageArmed(vpn)
			}
			if bpArmed {
				hit := false
				for i, en := range c.hwBreakEn {
					if en && c.hwBreak[i] == instPC {
						// One-shot disarm, exactly like Step: the handler
						// can resume past it; debuggers re-arm after
						// stepping.
						c.hwBreakEn[i] = false
						c.recalcObservers()
						hit = true
						break
					}
				}
				if hit {
					*clk += pend + c.raise(isa.CauseBRK, instPC, instPC)
					pend = 0
					n++
					if h, ok := c.fuseTrap(resume); ok {
						horizon, pagingOff = h, !c.PagingEnabled()
						bpVPN, bpArmed = noVPN, false
						continue
					}
					return n, BurstTrap
				}
			}
		}
		if instPC&3 != 0 {
			*clk += pend + c.raise(isa.CauseAlign, instPC, instPC)
			pend = 0
			n++
			if h, ok := c.fuseTrap(resume); ok {
				horizon, pagingOff = h, !c.PagingEnabled()
				bpVPN, bpArmed = noVPN, false
				continue
			}
			return n, BurstTrap
		}
		pa := instPC
		cyc := pend
		pend = 0
		if !pagingOff {
			// Inline TLB fetch-hit path (mirrors translate's hit arm for a
			// non-write access: matching live entry, user bit honored, zero
			// cycles); everything else takes the full translate.
			vpn := instPC >> isa.PageShift
			e := &c.tlb[vpn%tlbEntries]
			if e.Gen == c.tlbGen && e.VPN == vpn && (e.U || c.CPL() != isa.CPLUser) {
				pa = e.PFN<<isa.PageShift | instPC&isa.PageMask
			} else {
				var cause uint32
				var tcyc uint64
				pa, cause, tcyc = c.translate(instPC, false)
				cyc += tcyc
				if cause != isa.CauseNone {
					*clk += cyc + c.raise(cause, instPC, instPC)
					n++
					if h, ok := c.fuseTrap(resume); ok {
						horizon, pagingOff = h, !c.PagingEnabled()
						bpVPN, bpArmed = noVPN, false
						continue
					}
					return n, BurstTrap
				}
			}
		}
		var d *decoded
		if pfn := pa >> isa.PageShift; pfn == cpfn && c.dcGen == cgen && c.dcBulkGen == cbgen {
			d = &cpg.ins[(pa&isa.PageMask)>>2]
			if d.fn == fnUnset {
				if w, ok := c.bus.Read32(pa); ok {
					*d = decodeWord(w)
				} else {
					d = nil
				}
			}
		} else if d = c.decodeLookup(pa); d != nil {
			cpfn, cpg = pfn, c.dcPages[pfn]
			cgen, cbgen = c.dcGen, c.dcBulkGen
		}
		if d == nil {
			*clk += cyc + c.raise(isa.CauseBusError, instPC, instPC)
			n++
			if h, ok := c.fuseTrap(resume); ok {
				horizon, pagingOff = h, !c.PagingEnabled()
				bpVPN, bpArmed = noVPN, false
				continue
			}
			return n, BurstTrap
		}
		// Superblock dispatch: only when the first op is straight-line (a
		// block starting with a slow op or a terminator can never reach
		// sbMinLen, so slow-op-dense code — the trap benchmarks — never
		// pays a block lookup), on an unarmed page, and when the remaining
		// budget and the horizon cap admit a full worst-case block. A
		// pending chain-link request from a previous block's hot taken
		// exit is fulfilled here, where the target's block is known.
		if d.fn > fnSlow && d.fn < fnBEQ && !bpArmed {
			if b := c.sbLookup(pa); b != nil {
				if c.sbLink != nil {
					if c.sbLinkVA == instPC {
						c.sbLink.takenTo, c.sbLink.takenVA = b, instPC
					}
					c.sbLink = nil
				}
				if uint64(b.n) <= maxTicks-n && *clk+cyc+b.cycMax < horizon {
					var exit sbExit
					n, horizon, exit, pend = c.sbRun(b, clk, cyc, instPC, n, horizon, maxTicks, resume, pagingOff)
					if exit == sbTrapped {
						return n, BurstTrap
					}
					pagingOff = !c.PagingEnabled()
					bpVPN, bpArmed = noVPN, false
					if *clk >= horizon {
						return n, BurstHorizon
					}
					continue
				}
			}
		}
		if d.fn <= fnSlow {
			if d.fn == fnPrivOp && c.CPL() != isa.CPLMonitor {
				// Unconditionally privileged op below monitor level:
				// deliver CausePriv exactly as execute's trapStep would
				// (base cycles precomputed in imm, vaddr = raw word,
				// epc = instPC) without the interpreter round trip. The
				// divert branch of raise is open-coded — this is the
				// hottest trap site in monitor-dense guests, and the
				// fused-resume decision folds into the same branch.
				// Commit order matches raise: the diverter runs (and
				// charges monitor cycles) before the instruction's own
				// cyc+imm land on the clock, exactly as the interpreter
				// path orders it.
				c.Stat.Instructions++
				c.Stat.Traps++
				n++
				if c.Diverter != nil {
					if act := c.Diverter(isa.CausePriv, d.raw, instPC); act != DivertReflect {
						c.divertResumed = act == DivertResume
						*clk += cyc + uint64(d.imm)
						if act == DivertResume && resume != nil && !c.halted && !c.wedged {
							if h, ok := resume(); ok {
								horizon, pagingOff = h, !c.PagingEnabled()
								bpVPN, bpArmed = noVPN, false
								continue
							}
						}
						return n, BurstTrap
					}
				}
				c.divertResumed = false
				*clk += cyc + uint64(d.imm) + c.DeliverTrap(isa.CausePriv, d.raw, instPC)
				return n, BurstTrap
			}
			res := c.execute(instPC, d.raw)
			c.Stat.Instructions++
			*clk += res.Cycles + cyc
			n++
			if res.Trapped != isa.CauseNone {
				if h, ok := c.fuseTrap(resume); ok {
					horizon, pagingOff = h, !c.PagingEnabled()
					bpVPN, bpArmed = noVPN, false
					continue
				}
				return n, BurstTrap
			}
			if resume == nil {
				return n, BurstSync
			}
			h, ok := resume()
			if !ok {
				return n, BurstSync
			}
			horizon, pagingOff = h, !c.PagingEnabled()
			bpVPN, bpArmed = noVPN, false
			continue
		}
		if d.fn == fnJAL {
			// Unconditional jump: cannot trap and its effect is fully
			// static, so the executeFast call is skipped. Loop back-edges
			// in trap- and I/O-dense code are the hottest op left on the
			// per-instruction path (straight-line runs live in
			// superblocks).
			c.setRegFast(d.rd, instPC+4)
			c.PC = instPC + d.imm
			c.Stat.Instructions++
			*clk += uint64(isa.CycJump) + cyc
			n++
			if *clk >= horizon {
				return n, BurstHorizon
			}
			continue
		}
		res := c.executeFast(d, instPC)
		c.Stat.Instructions++
		*clk += res.Cycles + cyc
		n++
		if res.Trapped != isa.CauseNone {
			if h, ok := c.fuseTrap(resume); ok {
				horizon, pagingOff = h, !c.PagingEnabled()
				bpVPN, bpArmed = noVPN, false
				continue
			}
			return n, BurstTrap
		}
		if *clk >= horizon {
			return n, BurstHorizon
		}
	}
}

// fuseTrap decides whether a trap just raised mid-burst may be fused: the
// Diverter must have fully handled it (DivertResume) and the machine's
// resume hook must grant a fresh horizon. The horizon check is skipped on
// resume because the hook guarantees horizon > clock.
func (c *CPU) fuseTrap(resume BurstResume) (uint64, bool) {
	if !c.divertResumed || resume == nil || c.halted || c.wedged {
		return 0, false
	}
	return resume()
}

func (c *CPU) setRegFast(r uint8, v uint32) {
	if r != 0 {
		c.Regs[r] = v
	}
}

// executeFast runs one predecoded straight-line instruction, mirroring the
// corresponding arm of execute exactly — same results, same trap causes,
// same cycle charges. The store arms gate the slow path's spy/watch tail
// behind the armed write envelope (storeObserved): stores outside every
// armed page skip it — observably identical, since the per-slot
// intersection checks would have missed — and stores inside run the shared
// observedStore tail, bit-identical to Step.
func (c *CPU) executeFast(d *decoded, instPC uint32) StepResult {
	var v uint32
	switch d.fn {
	case fnLW:
		va := c.Regs[d.rs1] + d.imm
		if va&3 != 0 {
			return c.trapStep(isa.CauseAlign, va, instPC, isa.CycLoad)
		}
		pa, cause, extra := c.translate(va, false)
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, isa.CycLoad+extra)
		}
		w, ok := c.bus.Read32(pa)
		if !ok {
			return c.trapStep(isa.CauseBusError, va, instPC, isa.CycLoad+extra)
		}
		c.setRegFast(d.rd, w)
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycLoad + extra}
	case fnLH, fnLHU:
		va := c.Regs[d.rs1] + d.imm
		if va&1 != 0 {
			return c.trapStep(isa.CauseAlign, va, instPC, isa.CycLoad)
		}
		pa, cause, extra := c.translate(va, false)
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, isa.CycLoad+extra)
		}
		h, ok := c.bus.Read16(pa)
		if !ok {
			return c.trapStep(isa.CauseBusError, va, instPC, isa.CycLoad+extra)
		}
		if d.fn == fnLH {
			c.setRegFast(d.rd, uint32(int32(int16(h))))
		} else {
			c.setRegFast(d.rd, uint32(h))
		}
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycLoad + extra}
	case fnLB, fnLBU:
		va := c.Regs[d.rs1] + d.imm
		pa, cause, extra := c.translate(va, false)
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, isa.CycLoad+extra)
		}
		b, ok := c.bus.Read8(pa)
		if !ok {
			return c.trapStep(isa.CauseBusError, va, instPC, isa.CycLoad+extra)
		}
		if d.fn == fnLB {
			c.setRegFast(d.rd, uint32(int32(int8(b))))
		} else {
			c.setRegFast(d.rd, uint32(b))
		}
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycLoad + extra}

	case fnSW:
		va := c.Regs[d.rs1] + d.imm
		if va&3 != 0 {
			return c.trapStep(isa.CauseAlign, va, instPC, isa.CycStore)
		}
		pa, cause, extra := c.translate(va, true)
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, isa.CycStore+extra)
		}
		if !c.bus.Write32(pa, c.Regs[d.rd]) {
			return c.trapStep(isa.CauseBusError, va, instPC, isa.CycStore+extra)
		}
		if c.storeObserved(va, 4) {
			return c.observedStore(va, 4, instPC, isa.CycStore+extra)
		}
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycStore + extra}
	case fnSH:
		va := c.Regs[d.rs1] + d.imm
		if va&1 != 0 {
			return c.trapStep(isa.CauseAlign, va, instPC, isa.CycStore)
		}
		pa, cause, extra := c.translate(va, true)
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, isa.CycStore+extra)
		}
		if !c.bus.Write16(pa, uint16(c.Regs[d.rd])) {
			return c.trapStep(isa.CauseBusError, va, instPC, isa.CycStore+extra)
		}
		if c.storeObserved(va, 2) {
			return c.observedStore(va, 2, instPC, isa.CycStore+extra)
		}
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycStore + extra}
	case fnSB:
		va := c.Regs[d.rs1] + d.imm
		pa, cause, extra := c.translate(va, true)
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, isa.CycStore+extra)
		}
		if !c.bus.Write8(pa, byte(c.Regs[d.rd])) {
			return c.trapStep(isa.CauseBusError, va, instPC, isa.CycStore+extra)
		}
		if c.storeObserved(va, 1) {
			return c.observedStore(va, 1, instPC, isa.CycStore+extra)
		}
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycStore + extra}

	case fnBEQ:
		return c.branch(c.Regs[d.rd] == c.Regs[d.rs1], d, instPC)
	case fnBNE:
		return c.branch(c.Regs[d.rd] != c.Regs[d.rs1], d, instPC)
	case fnBLT:
		return c.branch(int32(c.Regs[d.rd]) < int32(c.Regs[d.rs1]), d, instPC)
	case fnBGE:
		return c.branch(int32(c.Regs[d.rd]) >= int32(c.Regs[d.rs1]), d, instPC)
	case fnBLTU:
		return c.branch(c.Regs[d.rd] < c.Regs[d.rs1], d, instPC)
	case fnBGEU:
		return c.branch(c.Regs[d.rd] >= c.Regs[d.rs1], d, instPC)

	case fnJAL:
		c.setRegFast(d.rd, instPC+4)
		c.PC = instPC + d.imm
		return StepResult{Cycles: isa.CycJump}
	case fnJALR:
		target := c.Regs[d.rs1] + d.imm
		c.setRegFast(d.rd, instPC+4)
		c.PC = target
		return StepResult{Cycles: isa.CycJump}

	case fnADD:
		v = c.Regs[d.rs1] + c.Regs[d.rs2]
	case fnSUB:
		v = c.Regs[d.rs1] - c.Regs[d.rs2]
	case fnAND:
		v = c.Regs[d.rs1] & c.Regs[d.rs2]
	case fnOR:
		v = c.Regs[d.rs1] | c.Regs[d.rs2]
	case fnXOR:
		v = c.Regs[d.rs1] ^ c.Regs[d.rs2]
	case fnSHL:
		v = c.Regs[d.rs1] << (c.Regs[d.rs2] & 31)
	case fnSHR:
		v = c.Regs[d.rs1] >> (c.Regs[d.rs2] & 31)
	case fnSRA:
		v = uint32(int32(c.Regs[d.rs1]) >> (c.Regs[d.rs2] & 31))
	case fnSLT:
		if int32(c.Regs[d.rs1]) < int32(c.Regs[d.rs2]) {
			v = 1
		}
	case fnSLTU:
		if c.Regs[d.rs1] < c.Regs[d.rs2] {
			v = 1
		}
	case fnMUL:
		c.setRegFast(d.rd, c.Regs[d.rs1]*c.Regs[d.rs2])
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycMUL}
	case fnDIVU:
		div := c.Regs[d.rs2]
		if div == 0 {
			v = 0xFFFFFFFF
		} else {
			v = c.Regs[d.rs1] / div
		}
		c.setRegFast(d.rd, v)
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycDIV}
	case fnREMU:
		div := c.Regs[d.rs2]
		if div == 0 {
			v = c.Regs[d.rs1]
		} else {
			v = c.Regs[d.rs1] % div
		}
		c.setRegFast(d.rd, v)
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycDIV}
	case fnADDI:
		v = c.Regs[d.rs1] + d.imm
	case fnANDI:
		v = c.Regs[d.rs1] & d.imm
	case fnORI:
		v = c.Regs[d.rs1] | d.imm
	case fnXORI:
		v = c.Regs[d.rs1] ^ d.imm
	case fnSHLI:
		v = c.Regs[d.rs1] << d.imm
	case fnSHRI:
		v = c.Regs[d.rs1] >> d.imm
	case fnSRAI:
		v = uint32(int32(c.Regs[d.rs1]) >> d.imm)
	case fnLUI:
		v = d.imm
	}
	c.setRegFast(d.rd, v)
	c.PC = instPC + 4
	return StepResult{Cycles: isa.CycALU}
}

// branch resolves a predecoded conditional branch. d.imm carries the
// taken displacement (offset*4+4), matching the slow path's
// instPC + 4 + offset*4 arithmetic modulo 2^32.
func (c *CPU) branch(taken bool, d *decoded, instPC uint32) StepResult {
	if taken {
		c.PC = instPC + d.imm
		return StepResult{Cycles: isa.CycTaken}
	}
	c.PC = instPC + 4
	return StepResult{Cycles: isa.CycBranch}
}
