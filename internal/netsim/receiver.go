package netsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"lvmm/internal/isa"
)

// Receiver is the host at the far end of the gigabit link. It validates
// every frame the guest transmits (headers, checksums, sequence numbers,
// payload pattern) and measures the achieved transfer rate in virtual time.
//
// Each UDP payload begins with an 8-byte trailer the guest stamps:
// a 32-bit sequence number and the 32-bit volume offset of the segment;
// the remaining payload bytes must match the volume pattern.
type Receiver struct {
	// Stats.
	Frames        uint64
	PayloadBytes  uint64 // UDP payload bytes (transfer-rate numerator)
	WireBytes     uint64 // frame + wire overhead bytes
	FirstCycle    uint64
	LastCycle     uint64
	SeqErrors     uint64
	PatternErrors uint64
	ParseErrors   uint64
	ChecksumBad   uint64

	// PatternSeed selects which seeded volume pattern payloads are
	// validated against (configuration, not state: it must match the
	// seed the machine's disks were filled with). Zero is the default
	// volume.
	PatternSeed uint64

	nextSeq   uint32
	lastError string
}

// NewReceiver creates an empty receiver.
func NewReceiver() *Receiver { return &Receiver{} }

// StampLen is the per-segment metadata the guest writes at the start of
// each UDP payload: sequence number and volume offset.
const StampLen = 8

// Deliver consumes one transmitted frame at the given virtual cycle.
// Verdicts take precedence in this order: a parse error, then a bad UDP
// checksum (which discards the pattern result), then a payload too short
// for the stamp, then a sequence gap, then a pattern mismatch.
func (r *Receiver) Deliver(frame []byte, cycle uint64) {
	if r.Frames == 0 {
		r.FirstCycle = cycle
	}
	r.LastCycle = cycle
	r.Frames++
	r.WireBytes += uint64(len(frame) + WireOverhead)

	ip, udp, err := parseHeaders(frame)
	if err != nil {
		r.ParseErrors++
		r.lastError = err.Error()
		return
	}
	// One pass over the payload yields both the checksum and the
	// pattern verdict; the checksum is still judged first.
	payload := udp[UDPHeaderLen:]
	csumOK, bad := true, -1
	var seq, volOff uint32
	if len(payload) < StampLen {
		csumOK = !udpChecksumUsed(udp) || udpSumOK(ip, len(udp), sumWords(0, udp))
	} else {
		seq = binary.LittleEndian.Uint32(payload[0:4])
		volOff = binary.LittleEndian.Uint32(payload[4:8])
		data, off := payload[StampLen:], uint64(volOff)+StampLen
		if udpChecksumUsed(udp) {
			var acc uint64
			bad, acc = checkPatternSum(data, off, r.PatternSeed, sumWords(0, udp[:UDPHeaderLen+StampLen]))
			csumOK = udpSumOK(ip, len(udp), acc)
		} else {
			bad = CheckPatternSeeded(data, off, r.PatternSeed)
		}
	}
	if !csumOK {
		r.ChecksumBad++
		r.lastError = "bad UDP checksum"
		return
	}
	r.PayloadBytes += uint64(len(payload))
	if len(payload) < StampLen {
		r.ParseErrors++
		r.lastError = "payload shorter than stamp"
		return
	}
	if seq != r.nextSeq {
		r.SeqErrors++
		r.lastError = fmt.Sprintf("sequence %d, expected %d", seq, r.nextSeq)
		r.nextSeq = seq
	}
	r.nextSeq++
	if bad >= 0 {
		r.PatternErrors++
		r.lastError = fmt.Sprintf("pattern mismatch at payload offset %d (vol 0x%x)", bad+StampLen, volOff)
	}
}

// checkPatternSum is CheckPatternSeeded fused with sumWords: one pass
// over buf that adds every byte to the word sum acc and finds the first
// byte that differs from the seeded pattern at off (-1 if none). It
// never stops early, because the checksum needs every byte.
func checkPatternSum(buf []byte, off, seed, acc uint64) (int, uint64) {
	y := patternGen(off, seed)
	bad := -1
	var c uint64
	i := 0
	for ; len(buf) >= 8; i += 8 {
		w := binary.LittleEndian.Uint64(buf)
		acc, c = bits.Add64(acc, w, c)
		if d := w ^ patternWord(y); d != 0 && bad < 0 {
			bad = i + bits.TrailingZeros64(d)/8
		}
		y += patStep8
		buf = buf[8:]
	}
	if len(buf) > 0 {
		w := loadTail(buf)
		acc, c = bits.Add64(acc, w, c)
		if d := w ^ patternWord(y)&tailMask(len(buf)); d != 0 && bad < 0 {
			bad = i + bits.TrailingZeros64(d)/8
		}
	}
	acc, c = bits.Add64(acc, 0, c)
	return bad, acc + c
}

// ReceiverState is the serializable receiver state (record/replay
// snapshots): rewinding a replayed machine must also rewind the
// validation stream, or replayed frames would arrive out of sequence.
type ReceiverState struct {
	Frames        uint64
	PayloadBytes  uint64
	WireBytes     uint64
	FirstCycle    uint64
	LastCycle     uint64
	SeqErrors     uint64
	PatternErrors uint64
	ParseErrors   uint64
	ChecksumBad   uint64
	NextSeq       uint32
	LastError     string
}

// State captures the receiver.
func (r *Receiver) State() ReceiverState {
	return ReceiverState{
		Frames: r.Frames, PayloadBytes: r.PayloadBytes, WireBytes: r.WireBytes,
		FirstCycle: r.FirstCycle, LastCycle: r.LastCycle,
		SeqErrors: r.SeqErrors, PatternErrors: r.PatternErrors,
		ParseErrors: r.ParseErrors, ChecksumBad: r.ChecksumBad,
		NextSeq: r.nextSeq, LastError: r.lastError,
	}
}

// Restore replaces the receiver state.
func (r *Receiver) Restore(s ReceiverState) {
	r.Frames, r.PayloadBytes, r.WireBytes = s.Frames, s.PayloadBytes, s.WireBytes
	r.FirstCycle, r.LastCycle = s.FirstCycle, s.LastCycle
	r.SeqErrors, r.PatternErrors = s.SeqErrors, s.PatternErrors
	r.ParseErrors, r.ChecksumBad = s.ParseErrors, s.ChecksumBad
	r.nextSeq, r.lastError = s.NextSeq, s.LastError
}

// Clean reports whether every delivered frame validated.
func (r *Receiver) Clean() bool {
	return r.ParseErrors == 0 && r.SeqErrors == 0 && r.PatternErrors == 0 && r.ChecksumBad == 0
}

// LastError describes the most recent validation failure, if any.
func (r *Receiver) LastError() string { return r.lastError }

// RateMbps returns the achieved UDP payload rate in megabits per second
// over a measurement window of the given virtual cycles.
func (r *Receiver) RateMbps(windowCycles uint64) float64 {
	if windowCycles == 0 {
		return 0
	}
	secs := isa.CyclesToSeconds(windowCycles)
	return float64(r.PayloadBytes) * 8 / 1e6 / secs
}
