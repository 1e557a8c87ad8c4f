package gdbstub

import (
	"fmt"
	"strconv"
	"strings"

	"lvmm/internal/rsp"
)

// qXfer:memory-map:read service (one of the paper-era RSP gaps): GDB
// fetches an XML description of the target's memory layout in chunks —
// `qXfer:memory-map:read::<offset>,<length>` — and the stub replies
// `m<data>` (more follows) or `l<data>` (last chunk). The document is
// regenerated per request from the target's MemoryMapper, so a machine
// whose layout could change between stops always reports current truth.

// memoryMapXML renders the GDB memory-map document for the target.
func memoryMapXML(mm MemoryMapper) string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?>` + "\n")
	b.WriteString(`<!DOCTYPE memory-map PUBLIC "+//IDN gnu.org//DTD GDB Memory Map V1.0//EN" "http://sourceware.org/gdb/gdb-memory-map.dtd">` + "\n")
	b.WriteString("<memory-map>\n")
	for _, r := range mm.MemoryMap() {
		fmt.Fprintf(&b, `  <memory type="%s" start="%#x" length="%#x"/>`+"\n",
			r.Type, r.Start, r.Length)
	}
	b.WriteString("</memory-map>\n")
	return b.String()
}

// handleMemoryMap services one qXfer:memory-map:read chunk. args is the
// "<offset>,<length>" tail (hex, per RSP).
func (s *Stub) handleMemoryMap(args string) {
	mm, ok := s.t.(MemoryMapper)
	if !ok {
		s.send("") // unsupported on this target
		return
	}
	comma := strings.IndexByte(args, ',')
	if comma < 0 {
		s.send("E01")
		return
	}
	off, err1 := strconv.ParseUint(args[:comma], 16, 32)
	n, err2 := strconv.ParseUint(args[comma+1:], 16, 32)
	if err1 != nil || err2 != nil || n == 0 || n > rsp.MaxMemXfer {
		s.send("E01")
		return
	}
	doc := memoryMapXML(mm)
	if off >= uint64(len(doc)) {
		s.send("l")
		return
	}
	end := off + n
	if end >= uint64(len(doc)) {
		s.send("l" + doc[off:])
		return
	}
	s.send("m" + doc[off:end])
}
