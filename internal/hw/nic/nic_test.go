package nic

import (
	"encoding/binary"
	"testing"

	"lvmm/internal/bus"
	"lvmm/internal/hw/hwtest"
	"lvmm/internal/isa"
	"lvmm/internal/netsim"
)

const (
	ringBase  = 0x8000
	ringLen   = 8
	frameBase = 0x10000
)

type rig struct {
	n      *NIC
	s      *hwtest.Sched
	b      *bus.Bus
	irqs   int
	frames [][]byte
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{s: &hwtest.Sched{}, b: bus.New(1 << 20)}
	r.n = New(r.s, func() { r.irqs++ }, r.b, func(f []byte, c uint64) {
		r.frames = append(r.frames, append([]byte{}, f...))
	})
	r.n.PortWrite(RegTxBase, ringBase)
	r.n.PortWrite(RegTxCount, ringLen)
	r.n.PortWrite(RegCtrl, CtrlEnable)
	return r
}

// queue writes descriptor idx for a frame of n bytes and returns the
// frame contents.
func (r *rig) queue(idx, n int, flags uint32) []byte {
	payload := make([]byte, n-netsim.HeadersLen)
	netsim.FillPattern(payload, uint64(idx)*1000)
	frame := append(netsim.BuildHeaderTemplate(netsim.DefaultFlow(), len(payload)), payload...)
	addr := uint32(frameBase + idx*2048)
	r.b.DMAWrite(addr, frame)
	d := ringBase + idx*DescSize
	r.b.Write32(uint32(d), addr)
	r.b.Write32(uint32(d+4), uint32(len(frame)))
	r.b.Write32(uint32(d+8), flags)
	r.b.Write32(uint32(d+12), 0)
	return frame
}

func TestTransmitSingleFrame(t *testing.T) {
	r := newRig(t)
	frame := r.queue(0, 200, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 1000)
	if len(r.frames) != 1 {
		t.Fatalf("frames %d", len(r.frames))
	}
	if string(r.frames[0]) != string(frame) {
		t.Fatal("frame bytes mangled")
	}
	if r.irqs != 1 {
		t.Fatalf("irqs %d", r.irqs)
	}
	if st, _ := r.b.Read32(ringBase + 12); st&DescStatDone == 0 {
		t.Fatal("done bit not written back")
	}
	if r.n.PortRead(RegTxHead) != 1 {
		t.Fatal("head not advanced")
	}
	if r.n.PortRead(RegICR)&ICRTxDone == 0 {
		t.Fatal("ICR bit missing")
	}
	if r.n.PortRead(RegICR) != 0 {
		t.Fatal("ICR not read-to-clear")
	}
}

func TestChecksumOffload(t *testing.T) {
	r := newRig(t)
	r.queue(0, 128, DescFlagEOP|DescFlagCsum)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 1000)
	p, err := netsim.ParseFrame(r.frames[0])
	if err != nil {
		t.Fatal(err)
	}
	udp := r.frames[0][netsim.EthHeaderLen+netsim.IPv4HeaderLen:]
	if binary.BigEndian.Uint16(udp[6:8]) == 0 {
		t.Fatal("UDP checksum not filled by offload")
	}
	if !p.UDPChecksumOK {
		t.Fatal("offloaded checksum invalid")
	}
}

func TestChecksumOffloadDisabled(t *testing.T) {
	r := newRig(t)
	r.n.SetCsumOffloadDisabled(true)
	r.queue(0, 128, DescFlagEOP|DescFlagCsum)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 1000)
	udp := r.frames[0][netsim.EthHeaderLen+netsim.IPv4HeaderLen:]
	if binary.BigEndian.Uint16(udp[6:8]) != 0 {
		t.Fatal("disabled engine still filled the checksum")
	}
}

func TestWireRateSerialization(t *testing.T) {
	r := newRig(t)
	const n = 4
	for i := 0; i < n; i++ {
		r.queue(i, 1066, DescFlagEOP)
	}
	r.n.PortWrite(RegTxTail, n)
	perFrame := wireCycles(1066)
	// After 2.5 frame times, exactly 2 frames are on the wire.
	r.s.Advance(perFrame*5/2 + 1)
	if len(r.frames) != 2 {
		t.Fatalf("frames after 2.5 wire times: %d", len(r.frames))
	}
	r.s.Advance(perFrame * 10)
	if len(r.frames) != n {
		t.Fatalf("total frames %d", len(r.frames))
	}
}

func TestCoalescingBatches(t *testing.T) {
	r := newRig(t)
	r.n.PortWrite(RegCoalesce, 4)
	for i := 0; i < 4; i++ {
		r.queue(i, 500, DescFlagEOP)
	}
	r.n.PortWrite(RegTxTail, 4)
	r.s.Advance(isa.ClockHz / 100)
	if len(r.frames) != 4 {
		t.Fatalf("frames %d", len(r.frames))
	}
	if r.irqs != 1 {
		t.Fatalf("coalesce=4 should give one IRQ for four frames, got %d", r.irqs)
	}
}

func TestITRTimerFlushesPartialBatch(t *testing.T) {
	r := newRig(t)
	r.n.PortWrite(RegCoalesce, 8)
	r.queue(0, 500, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(wireCycles(500) + 10)
	if r.irqs != 0 {
		t.Fatal("partial batch signalled immediately despite coalescing")
	}
	// The throttle timer delivers it within 8×20 µs.
	r.s.Advance(r.s.Now() + 8*ITRCyclesPerUnit + 1000)
	if r.irqs != 1 {
		t.Fatalf("ITR did not flush the partial batch: irqs=%d", r.irqs)
	}
}

func TestRingWrapAround(t *testing.T) {
	r := newRig(t)
	// Send ringLen+2 frames in two bursts to force wrap.
	for i := 0; i < ringLen-1; i++ {
		r.queue(i, 200, DescFlagEOP)
	}
	r.n.PortWrite(RegTxTail, ringLen-1)
	r.s.Advance(isa.ClockHz / 100)
	if len(r.frames) != ringLen-1 {
		t.Fatalf("first burst %d", len(r.frames))
	}
	// Next burst wraps: slots 7, 0.
	r.queue(ringLen-1, 200, DescFlagEOP)
	r.queue(0, 200, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1) // tail wraps to 1
	r.s.Advance(r.s.Now() + isa.ClockHz/100)
	if len(r.frames) != ringLen+1 {
		t.Fatalf("after wrap %d", len(r.frames))
	}
	if r.n.PortRead(RegTxHead) != 1 {
		t.Fatalf("head %d after wrap", r.n.PortRead(RegTxHead))
	}
}

func TestDisableResetsRing(t *testing.T) {
	r := newRig(t)
	r.queue(0, 200, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.n.PortWrite(RegCtrl, 0) // disable with frame in flight
	r.s.Advance(isa.ClockHz / 100)
	if len(r.frames) != 0 {
		t.Fatal("frame transmitted after disable")
	}
	if r.n.PortRead(RegTxHead) != 0 || r.n.PortRead(RegTxTail) != 0 {
		t.Fatal("ring indices not reset")
	}
}

func TestBadDescriptorAddressCounted(t *testing.T) {
	r := newRig(t)
	d := ringBase
	r.b.Write32(uint32(d), 0xFFFFFF00) // bogus buffer address
	r.b.Write32(uint32(d+4), 64)
	r.b.Write32(uint32(d+8), DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 100)
	if r.n.DescErrors == 0 {
		t.Fatal("descriptor error not counted")
	}
	if len(r.frames) != 0 {
		t.Fatal("bogus frame delivered")
	}
}

func TestOnTransmitHook(t *testing.T) {
	r := newRig(t)
	var seen uint32
	r.n.OnTransmit = func(n uint32) { seen = n }
	r.queue(0, 300, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 100)
	if seen != 300 {
		t.Fatalf("hook saw %d", seen)
	}
}

func TestMACRegisters(t *testing.T) {
	r := newRig(t)
	r.n.PortWrite(RegMACLo, 0x12345678)
	r.n.PortWrite(RegMACHi, 0x9ABC)
	if r.n.PortRead(RegMACLo) != 0x12345678 || r.n.PortRead(RegMACHi) != 0x9ABC {
		t.Fatal("MAC readback failed")
	}
	if r.n.PortRead(RegFrames) != 0 {
		t.Fatal("frame counter should be 0")
	}
}

// stampedFrame builds an n-byte frame as the streaming guest does: the
// payload carries the seq/volume-offset stamp, then the volume pattern.
// The UDP checksum is left for offload.
func stampedFrame(n int, seq, volOff uint32) []byte {
	payload := make([]byte, n-netsim.HeadersLen)
	netsim.FillPattern(payload, uint64(volOff))
	binary.LittleEndian.PutUint32(payload[0:4], seq)
	binary.LittleEndian.PutUint32(payload[4:8], volOff)
	return append(netsim.BuildHeaderTemplate(netsim.DefaultFlow(), len(payload)), payload...)
}

// The NIC transmits out of one buffer it reuses: back-to-back frames of
// different lengths must still reach the tap and the sink intact, offload
// must write only the NIC's copy, and once the buffer has grown the
// complete → Receiver.Deliver path of a clean frame allocates nothing.
func TestFrameBufferReuse(t *testing.T) {
	r := newRig(t)
	recv := netsim.NewReceiver()
	var sunk, tapped [][]byte
	r.n.SetSink(func(f []byte, c uint64) {
		sunk = append(sunk, append([]byte(nil), f...))
		recv.Deliver(f, c)
	})
	r.n.SetFrameTap(func(f []byte, c uint64) {
		tapped = append(tapped, append([]byte(nil), f...))
	})
	var inRAM, want [][]byte
	volOff := uint32(0)
	for i, n := range []int{1066, 300} {
		f := stampedFrame(n, uint32(i), volOff)
		volOff += uint32(n - netsim.HeadersLen)
		addr := uint32(frameBase + i*2048)
		r.b.DMAWrite(addr, f)
		d := uint32(ringBase + i*DescSize)
		r.b.Write32(d, addr)
		r.b.Write32(d+4, uint32(n))
		r.b.Write32(d+8, DescFlagEOP|DescFlagCsum)
		inRAM = append(inRAM, f)
		w := append([]byte(nil), f...)
		netsim.OffloadChecksums(w)
		want = append(want, w)
	}
	r.n.PortWrite(RegTxTail, 2)
	r.s.Advance(isa.ClockHz / 100)
	if len(sunk) != 2 || len(tapped) != 2 {
		t.Fatalf("sink saw %d frames, tap %d", len(sunk), len(tapped))
	}
	for i := range want {
		if string(sunk[i]) != string(want[i]) || string(tapped[i]) != string(want[i]) {
			t.Errorf("frame %d: sink or tap copy differs from the offloaded frame", i)
		}
		addr := frameBase + i*2048
		if string(r.b.RAM()[addr:addr+len(inRAM[i])]) != string(inRAM[i]) {
			t.Errorf("frame %d: offload wrote guest RAM", i)
		}
	}
	if !recv.Clean() || recv.Frames != 2 {
		t.Fatalf("receiver: %d frames, %s", recv.Frames, recv.LastError())
	}

	// Steady state: restamp frame 0 with the next sequence number and
	// complete it again, straight into the receiver.
	r.n.SetSink(recv.Deliver)
	r.n.SetFrameTap(nil)
	seq := uint32(2)
	allocs := testing.AllocsPerRun(100, func() {
		binary.LittleEndian.PutUint32(r.b.RAM()[frameBase+netsim.HeadersLen:], seq)
		seq++
		r.n.complete(ringBase, frameBase, uint32(len(inRAM[0])), DescFlagEOP|DescFlagCsum)
	})
	if allocs != 0 {
		t.Errorf("complete → Deliver allocates %v times per frame", allocs)
	}
	if !recv.Clean() || recv.Frames != uint64(seq) {
		t.Fatalf("receiver: %d frames, %s", recv.Frames, recv.LastError())
	}
}
