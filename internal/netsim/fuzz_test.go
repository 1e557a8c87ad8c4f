package netsim

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzPattern checks the word-wide pattern fill and check against the
// byte loops for any offset, seed and length up to 3 KiB (tails under
// eight bytes included), and that a single flipped byte anywhere is
// reported at its exact index.
func FuzzPattern(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(0), uint16(0), byte(1))
	f.Add(uint64(1), uint64(0), uint16(7), uint16(6), byte(0x80))
	f.Add(uint64(8), uint64(1), uint16(8), uint16(7), byte(0xFF))
	f.Add(uint64(1000), uint64(3), uint16(1066), uint16(1065), byte(1))
	f.Add(^uint64(0), ^uint64(0), uint16(3072), uint16(8), byte(2))
	f.Fuzz(func(t *testing.T, off, seed uint64, n, flip uint16, x byte) {
		n %= 3*1024 + 1
		got := make([]byte, n)
		want := make([]byte, n)
		FillPatternSeeded(got, off, seed)
		refFillPattern(want, off, seed)
		if !bytes.Equal(got, want) {
			t.Fatalf("fill(off=%d, seed=%d, n=%d) differs from the byte loop", off, seed, n)
		}
		if i := CheckPatternSeeded(got, off, seed); i != -1 {
			t.Fatalf("check of a clean fill reports %d", i)
		}
		if n == 0 {
			return
		}
		k := int(flip % n)
		got[k] ^= x | 1
		if i, ref := CheckPatternSeeded(got, off, seed), refCheckPattern(got, off, seed); i != k || ref != k {
			t.Fatalf("flip at %d of %d: check reports %d, byte loop %d", k, n, i, ref)
		}
	})
}

// FuzzChecksum checks SumBytes and Checksum against the exact 16-bit
// word sum, on any length and on running sums near 2³².
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0xFF}, uint32(0))
	f.Add([]byte{0xFF, 0xFF}, uint32(0xFFFFFFFF))
	f.Add(bytes.Repeat([]byte{0xFF}, 37), uint32(0xFFFFFFFE))
	f.Add(bytes.Repeat([]byte{0}, 33), uint32(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint32(0xFFFF0001))
	f.Fuzz(func(t *testing.T, data []byte, sum uint32) {
		if got, want := Checksum(data), refChecksum(data); got != want {
			t.Fatalf("Checksum(% x) = %#04x, byte loop %#04x", data, got, want)
		}
		// The running sum as given, and the same low half pushed up
		// against 2³², where a single fold of the carries would wrap.
		for _, s := range []uint32{sum, sum | 0xFFFF0000} {
			exact := refSum(uint64(s), data)
			got := SumBytes(s, data)
			if uint64(got)%0xFFFF != exact%0xFFFF || (got == 0) != (exact == 0) {
				t.Fatalf("SumBytes(%#x, % x) = %#x, exact sum %#x", s, data, got, exact)
			}
			if FinishChecksum(got) != refFinish(exact) {
				t.Fatalf("FinishChecksum(SumBytes(%#x, % x)) = %#04x, want %#04x",
					s, data, FinishChecksum(got), refFinish(exact))
			}
			// Chaining at any even split sums the concatenation.
			mid := len(data) / 2 &^ 1
			if c := SumBytes(SumBytes(s, data[:mid]), data[mid:]); FinishChecksum(c) != refFinish(exact) {
				t.Fatalf("split at %d: %#x, exact sum %#x", mid, c, exact)
			}
		}
	})
}

// stampedFrame builds the frame the streaming guest sends for one
// segment: a sequence/volume-offset stamp, then the seeded pattern.
func stampedFrame(payloadLen int, seq, volOff uint32, seed uint64, offload bool) []byte {
	payload := make([]byte, payloadLen)
	FillPatternSeeded(payload, uint64(volOff), seed)
	if payloadLen >= StampLen {
		binary.LittleEndian.PutUint32(payload[0:4], seq)
		binary.LittleEndian.PutUint32(payload[4:8], volOff)
	}
	frame := append(BuildHeaderTemplate(DefaultFlow(), payloadLen), payload...)
	if offload {
		OffloadChecksums(frame)
	}
	return frame
}

// FuzzReceiverDeliver checks the fused one-pass Receiver.Deliver against
// refDeliver: after any sequence of stamped frames — corrupted in one
// byte, with the UDP checksum field zeroed, with short payloads or with
// rewritten IP and UDP lengths — and of raw fuzz bytes, every
// ReceiverState field must match.
func FuzzReceiverDeliver(f *testing.F) {
	f.Add(uint16(1024), uint32(0), uint32(0), uint64(0), true, uint16(0), byte(0), byte(0), uint16(0), []byte{})
	f.Add(uint16(1024), uint32(7), uint32(4096), uint64(1), true, uint16(600), byte(0x10), byte(0), uint16(0), []byte{})
	f.Add(uint16(1024), uint32(0), uint32(0), uint64(2), false, uint16(90), byte(1), byte(0), uint16(0), []byte{})
	f.Add(uint16(999), uint32(0), uint32(5), uint64(0), true, uint16(0), byte(0), byte(1), uint16(0), []byte{})
	f.Add(uint16(5), uint32(0), uint32(0), uint64(0), true, uint16(0), byte(0), byte(0), uint16(0), []byte{})
	f.Add(uint16(64), uint32(0), uint32(0), uint64(0), true, uint16(0), byte(0), byte(2), uint16(27), []byte{})
	f.Add(uint16(64), uint32(0), uint32(0), uint64(0), true, uint16(0), byte(0), byte(2), uint16(10), []byte{})
	f.Add(uint16(64), uint32(0), uint32(0), uint64(0), true, uint16(0), byte(0), byte(4), uint16(30), []byte{})
	f.Add(uint16(64), uint32(0), uint32(0), uint64(0), true, uint16(0), byte(0), byte(8), uint16(50), []byte{})
	f.Add(uint16(0), uint32(0), uint32(0), uint64(0), false, uint16(0), byte(0), byte(0), uint16(0), make([]byte, HeadersLen))
	f.Fuzz(func(t *testing.T, payloadLen uint16, seq, volOff uint32, seed uint64, offload bool,
		at uint16, x, mode byte, length uint16, raw []byte) {
		frame := stampedFrame(int(payloadLen%2048), seq, volOff, seed, offload)
		ip := frame[EthHeaderLen:]
		if mode&1 != 0 { // no UDP checksum
			ip[IPv4HeaderLen+6], ip[IPv4HeaderLen+7] = 0, 0
		}
		if mode&2 != 0 { // any IP total length, header checksum kept valid
			binary.BigEndian.PutUint16(ip[2:4], length)
			ip[10], ip[11] = 0, 0
			binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))
		}
		if mode&4 != 0 { // any UDP length
			binary.BigEndian.PutUint16(ip[IPv4HeaderLen+4:], length)
		}
		if mode&8 != 0 { // truncated on the wire
			frame = frame[:int(length)%(len(frame)+1)]
		}
		if x != 0 && len(frame) > 0 {
			frame[int(at)%len(frame)] ^= x
		}
		next := stampedFrame(64, seq+1, volOff+64, seed, offload)

		fused, ref := NewReceiver(), NewReceiver()
		fused.PatternSeed, ref.PatternSeed = seed, seed
		for i, fr := range [][]byte{frame, next, raw} {
			fused.Deliver(fr, uint64(i))
			refDeliver(ref, fr, uint64(i))
			if got, want := fused.State(), ref.State(); got != want {
				t.Fatalf("after frame %d:\nfused %+v\nref   %+v", i, got, want)
			}
		}
	})
}
