// Package gdbstub implements the target-side remote-debugging functions of
// the paper's Figure 2.1: a GDB Remote Serial Protocol stub that receives
// debugging commands (memory/register reference and update, breakpoints,
// run control) over the communication device and executes them against the
// guest.
//
// The stub is residence-agnostic: hosted by the monitor it keeps working
// whatever the guest does (the paper's stability property); resident in
// guest memory (the conventional embedded-debugger baseline) it dies the
// moment the guest corrupts its state — the contrast the stability
// experiments measure.
package gdbstub

import (
	"fmt"
	"strconv"
	"strings"

	"lvmm/internal/rsp"
)

// NumRegs is the register count in the RSP 'g' packet: 16 GPRs + PC + PSR.
const NumRegs = 18

// Target is the debugged machine as the stub sees it.
type Target interface {
	// ReadRegs returns r0..r15, PC, PSR (the guest's view of PSR).
	ReadRegs() [NumRegs]uint32
	// WriteReg updates one register.
	WriteReg(i int, v uint32) bool
	// ReadMem reads guest memory through the current translation.
	ReadMem(addr uint32, n int) ([]byte, bool)
	// WriteMem writes guest memory (debug semantics: may patch text).
	WriteMem(addr uint32, data []byte) bool
	// Step executes exactly one guest instruction.
	Step()
	// Freeze stops guest execution; Resume restarts it.
	Freeze()
	Resume()
	// Frozen reports the run state.
	Frozen() bool
	// SetHWBreak programs hardware breakpoint slot i (0..3).
	SetHWBreak(i int, addr uint32, enabled bool) error
	// SetWatchpoint programs data-watchpoint slot i (0..3) over
	// [addr, addr+length).
	SetWatchpoint(i int, addr, length uint32, enabled bool) error
	// Info renders target status for the debugger's monitor command.
	Info() string
}

// MemRegion is one region of the target's physical address space for the
// qXfer:memory-map:read document (GDB memory-map DTD types: "ram",
// "rom", "flash").
type MemRegion struct {
	Type   string
	Start  uint32
	Length uint32
}

// MemoryMapper is optionally implemented by Targets that can describe
// the machine's memory layout. When present, the stub advertises
// qXfer:memory-map:read+ so a real GDB learns where RAM ends and stops
// planting software breakpoints in unbacked space.
type MemoryMapper interface {
	MemoryMap() []MemRegion
}

// BlockReporter is optionally implemented by Targets whose machine runs
// the superblock execution tier. When present, `monitor blocks` renders
// the tier's telemetry (blocks built, dispatches, chain hit/miss/sever
// counts) so a debugging session can see whether the guest is running
// predecoded.
type BlockReporter interface {
	BlockInfo() string
}

// ByteIO is the communication device (both UART ends, or a test harness).
type ByteIO interface {
	TakeByte() (byte, bool)
	SendByte(b byte)
}

// Residence describes where the stub's working state lives.
type Residence int

const (
	// MonitorResident: state lives in the monitor, unreachable by the
	// guest (the paper's design).
	MonitorResident Residence = iota
	// GuestResident: state lives in guest memory (conventional embedded
	// debugger); corruption kills the stub.
	GuestResident
)

// CanaryMagic marks a live guest-resident stub state block.
const CanaryMagic = 0x5AFE57B5

// Stub is one debug stub instance.
type Stub struct {
	t   Target
	io  ByteIO
	dec rsp.Decoder

	residence  Residence
	canaryAddr uint32
	dead       bool
	rv         Reverser // non-nil on replay-backed targets (time travel)

	swBreaks map[uint32]uint32 // addr -> original instruction word
	hwSlots  [4]uint32
	hwUsed   [4]bool
	wpSlots  [4]uint32
	wpLens   [4]uint32
	wpUsed   [4]bool

	lastSignal byte
	// Stats for tests and the monitor command.
	PacketsHandled uint64
	StopsSent      uint64
}

// New creates a monitor-resident stub.
func New(t Target, io ByteIO) *Stub {
	return &Stub{t: t, io: io, swBreaks: map[uint32]uint32{}, lastSignal: 5}
}

// NewGuestResident creates a stub whose state block (canary) lives in
// guest memory at canaryAddr. The stub writes its canary immediately and
// verifies it before every interaction.
func NewGuestResident(t Target, io ByteIO, canaryAddr uint32) *Stub {
	s := New(t, io)
	s.residence = GuestResident
	s.canaryAddr = canaryAddr
	s.writeCanary()
	return s
}

func (s *Stub) writeCanary() {
	const m = CanaryMagic
	s.t.WriteMem(s.canaryAddr, []byte{
		byte(m & 0xFF), byte(m >> 8 & 0xFF),
		byte(m >> 16 & 0xFF), byte(m >> 24 & 0xFF)})
}

// healthy verifies the stub's own state; a guest-resident stub whose
// canary was overwritten is dead and stops responding, exactly like an
// embedded debugger whose data structures the buggy OS scribbled over.
func (s *Stub) healthy() bool {
	if s.dead {
		return false
	}
	if s.residence == MonitorResident {
		return true
	}
	b, ok := s.t.ReadMem(s.canaryAddr, 4)
	if !ok || len(b) != 4 {
		s.dead = true
		return false
	}
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	if v != CanaryMagic {
		s.dead = true
		return false
	}
	return true
}

// Dead reports whether the stub has stopped responding.
func (s *Stub) Dead() bool { return s.dead }

// Poll drains pending input from the communication device, handling any
// complete packets. Call from the machine's idle hook and after stops.
func (s *Stub) Poll() {
	for {
		b, ok := s.io.TakeByte()
		if !ok {
			return
		}
		if !s.healthy() {
			return // a dead stub consumes nothing and says nothing
		}
		for _, ev := range s.dec.Feed([]byte{b}) {
			switch ev.Kind {
			case 'p':
				s.io.SendByte(rsp.Ack)
				s.handle(string(ev.Payload))
			case 'i':
				// ^C: freeze the guest and report.
				s.t.Freeze()
				s.NotifyStop(2) // SIGINT
			}
		}
	}
}

// NotifyStop sends an asynchronous stop packet (breakpoint hit, step
// done, fault intercepted) to the host debugger.
func (s *Stub) NotifyStop(signal byte) {
	if !s.healthy() {
		return
	}
	s.lastSignal = signal
	s.StopsSent++
	s.send(fmt.Sprintf("S%02x", signal))
}

func (s *Stub) send(payload string) {
	for _, b := range rsp.Encode([]byte(payload)) {
		s.io.SendByte(b)
	}
}

// handle dispatches one RSP command packet.
func (s *Stub) handle(p string) {
	s.PacketsHandled++
	if p == "" {
		s.send("")
		return
	}
	switch p[0] {
	case '?':
		s.send(fmt.Sprintf("S%02x", s.lastSignal))
	case 'g':
		regs := s.t.ReadRegs()
		var b strings.Builder
		for _, r := range regs {
			b.WriteString(rsp.Word32(r))
		}
		s.send(b.String())
	case 'G':
		data, err := rsp.HexDecode(p[1:])
		if err != nil || len(data) != NumRegs*4 {
			s.send("E01")
			return
		}
		for i := 0; i < NumRegs; i++ {
			v := uint32(data[i*4]) | uint32(data[i*4+1])<<8 |
				uint32(data[i*4+2])<<16 | uint32(data[i*4+3])<<24
			s.t.WriteReg(i, v)
		}
		s.send("OK")
	case 'p':
		n, err := strconv.ParseUint(p[1:], 16, 32)
		if err != nil || n >= NumRegs {
			s.send("E01")
			return
		}
		s.send(rsp.Word32(s.t.ReadRegs()[n]))
	case 'P':
		eq := strings.IndexByte(p, '=')
		if eq < 0 {
			s.send("E01")
			return
		}
		n, err1 := strconv.ParseUint(p[1:eq], 16, 32)
		v, err2 := rsp.ParseWord32(p[eq+1:])
		if err1 != nil || err2 != nil || n >= NumRegs {
			s.send("E01")
			return
		}
		if !s.t.WriteReg(int(n), v) {
			s.send("E02")
			return
		}
		s.send("OK")
	case 'm':
		addr, n, err := parseAddrLen(p[1:])
		if err != nil {
			s.send("E01")
			return
		}
		data, ok := s.t.ReadMem(addr, n)
		if !ok {
			s.send("E02")
			return
		}
		s.send(rsp.HexEncode(data))
	case 'M':
		colon := strings.IndexByte(p, ':')
		if colon < 0 {
			s.send("E01")
			return
		}
		addr, n, err := parseAddrLen(p[1:colon])
		if err != nil {
			s.send("E01")
			return
		}
		data, err := rsp.HexDecode(p[colon+1:])
		if err != nil || len(data) != n {
			s.send("E01")
			return
		}
		if !s.t.WriteMem(addr, data) {
			s.send("E02")
			return
		}
		s.send("OK")
	case 'c':
		s.resumeFromStop()
		// No reply now: the next stop event sends the packet.
	case 's':
		s.stepOne()
		s.lastSignal = 5
		s.send("S05")
	case 'b':
		s.handleReverse(p)
	case 'z', 'Z':
		s.handleBreak(p)
	case 'k', 'D':
		// Kill/detach: resume the guest and acknowledge detach.
		s.clearAllBreaks()
		s.t.Resume()
		if p[0] == 'D' {
			s.send("OK")
		}
	case 'H':
		s.send("OK") // single-threaded target
	case 'q':
		s.handleQuery(p)
	default:
		s.send("") // unsupported
	}
}

func (s *Stub) handleQuery(p string) {
	switch {
	case strings.HasPrefix(p, "qSupported"):
		caps := "PacketSize=4000;swbreak+;hwbreak+"
		if _, ok := s.t.(MemoryMapper); ok {
			caps += ";qXfer:memory-map:read+"
		}
		if s.rv != nil {
			caps += ";ReverseStep+;ReverseContinue+"
		}
		s.send(caps)
	case strings.HasPrefix(p, "qXfer:memory-map:read::"):
		s.handleMemoryMap(p[len("qXfer:memory-map:read::"):])
	case p == "qAttached":
		s.send("1")
	case strings.HasPrefix(p, "qRcmd,"):
		hex, err := rsp.HexDecode(p[len("qRcmd,"):])
		if err != nil {
			s.send("E01")
			return
		}
		out := s.monitorCommand(string(hex))
		s.send(rsp.HexEncode([]byte(out)))
	case p == "qC":
		s.send("QC0")
	default:
		s.send("")
	}
}

// monitorCommand implements the `monitor <cmd>` channel.
func (s *Stub) monitorCommand(cmd string) string {
	switch strings.TrimSpace(cmd) {
	case "info", "stats":
		return s.t.Info()
	case "blocks":
		if br, ok := s.t.(BlockReporter); ok {
			return br.BlockInfo()
		}
		return "target has no superblock tier\n"
	case "checkpoint", "position":
		return s.monitorReplay(strings.TrimSpace(cmd))
	case "breaks":
		var b strings.Builder
		for a := range s.swBreaks {
			fmt.Fprintf(&b, "sw 0x%08x\n", a)
		}
		for i, used := range s.hwUsed {
			if used {
				fmt.Fprintf(&b, "hw%d 0x%08x\n", i, s.hwSlots[i])
			}
		}
		for i, used := range s.wpUsed {
			if used {
				fmt.Fprintf(&b, "watch%d 0x%08x len %d\n", i, s.wpSlots[i], s.wpLens[i])
			}
		}
		if b.Len() == 0 {
			return "no breakpoints\n"
		}
		return b.String()
	default:
		return "unknown monitor command: " + cmd + "\n"
	}
}

func parseAddrLen(s string) (uint32, int, error) {
	comma := strings.IndexByte(s, ',')
	if comma < 0 {
		return 0, 0, fmt.Errorf("missing length")
	}
	addr, err1 := strconv.ParseUint(s[:comma], 16, 32)
	n, err2 := strconv.ParseUint(s[comma+1:], 16, 32)
	if err1 != nil || err2 != nil || n > rsp.MaxMemXfer {
		return 0, 0, fmt.Errorf("bad addr/len")
	}
	return uint32(addr), int(n), nil
}
