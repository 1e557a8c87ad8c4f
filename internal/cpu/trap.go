package cpu

import "lvmm/internal/isa"

// raise routes a trap: the Diverter (a VMM) gets first claim; otherwise the
// trap is delivered architecturally through the vector table. Returns the
// cycles charged by delivery (diverters charge their own costs at the
// machine level).
func (c *CPU) raise(cause, vaddr, epc uint32) uint64 {
	c.Stat.Traps++
	if c.Diverter != nil {
		if act := c.Diverter(cause, vaddr, epc); act != DivertReflect {
			c.divertResumed = act == DivertResume
			return 0
		}
	}
	c.divertResumed = false
	return c.DeliverTrap(cause, vaddr, epc)
}

// DivertResumed reports whether the most recently raised trap was consumed
// by the Diverter with DivertResume: the monitor fully emulated it in place
// and the guest may continue on the predecoded fast path. The machine's run
// loop consults it after a trap ends a burst to decide whether to fuse the
// next burst onto the same crossing.
func (c *CPU) DivertResumed() bool { return c.divertResumed }

// DeliverTrap performs architectural trap delivery into the current vector
// table: save PC/PSR/cause/vaddr to control registers, switch to the kernel
// stack when coming from CPL>0, drop to CPL0 with interrupts and tracing
// off, and vector through VBAR. A failure to read a usable handler raises
// a double fault; a second failure wedges the CPU (triple-fault analogue).
//
// The monitor uses the same sequence against *virtual* control registers
// when injecting traps into a deprivileged guest; see internal/vmm.
func (c *CPU) DeliverTrap(cause, vaddr, epc uint32) uint64 {
	cycles := uint64(isa.CycTrapEntry)

	idx := vectorIndex(cause)
	handler, ok := c.readHandler(idx)
	if !ok || handler == 0 {
		if cause == isa.CauseDouble {
			c.wedged = true
			return cycles
		}
		// Record the original cause for post-mortem debugging.
		c.CR[isa.CRVaddr] = cause
		return cycles + c.DeliverTrap(isa.CauseDouble, vaddr, epc)
	}

	if c.CPL() != isa.CPLMonitor {
		c.CR[isa.CRUsp] = c.Regs[isa.RegSP]
		c.Regs[isa.RegSP] = c.CR[isa.CRKsp]
	}
	c.CR[isa.CREpc] = epc
	c.CR[isa.CRCause] = cause
	c.CR[isa.CRVaddr] = vaddr
	c.CR[isa.CREstatus] = c.PSR
	c.PSR = isa.WithCPL(c.PSR, isa.CPLMonitor) &^ (isa.PSRIF | isa.PSRTF)
	c.PC = handler
	c.halted = false
	return cycles
}

// vectorIndex maps a cause to its vector-table slot.
func vectorIndex(cause uint32) uint32 {
	if cause < isa.NumVectors {
		return cause
	}
	return isa.CauseUD
}

// readHandler fetches the handler address for vector idx through the
// current page tables with supervisor rights.
func (c *CPU) readHandler(idx uint32) (uint32, bool) {
	va := c.CR[isa.CRVbar] + idx*4
	if !c.PagingEnabled() {
		return c.bus.Read32(va)
	}
	pa, ok := c.TranslateDebug(va)
	if !ok {
		return 0, false
	}
	return c.bus.Read32(pa)
}
