// Package rsp implements the framing layer of the GDB Remote Serial
// Protocol: $data#checksum packets with +/- acknowledgements, plus the
// hex encodings the protocol uses. It is shared by the target-side stub
// (internal/gdbstub) and the host-side debugger (internal/debugger) —
// the two ends of the paper's Figure 2.1.
package rsp

import (
	"fmt"
	"strings"
)

// Special bytes.
const (
	PacketStart = '$'
	PacketEnd   = '#'
	Ack         = '+'
	Nak         = '-'
	// InterruptByte is the out-of-band "stop the target" request
	// (what a debugger sends for Ctrl-C).
	InterruptByte = 0x03
)

// MaxMemXfer is the largest memory transfer, in bytes, one m/M packet
// or qXfer chunk may request; the stub refuses longer ones.
const MaxMemXfer = 0x10000

// MaxPayload bounds a packet body: the hex-encoded largest memory
// transfer plus room for a command header ("M<addr>,<len>:"). Nothing
// either end legitimately sends is longer, so the Decoder drops a
// packet that grows past it instead of buffering a peer's unterminated
// packet without limit.
const MaxPayload = 2*MaxMemXfer + 64

// Checksum computes the RSP modulo-256 checksum of a payload.
func Checksum(payload []byte) byte {
	var s byte
	for _, b := range payload {
		s += b
	}
	return s
}

// Encode frames a payload as $payload#xx.
func Encode(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+4)
	out = append(out, PacketStart)
	out = append(out, payload...)
	out = append(out, PacketEnd)
	return append(out, hexDigits[Checksum(payload)>>4], hexDigits[Checksum(payload)&0xF])
}

const hexDigits = "0123456789abcdef"

// Event is something the decoder produced from the byte stream.
type Event struct {
	// Kind is 'p' for a packet, 'i' for an interrupt byte, '+' or '-'
	// for acknowledgements.
	Kind byte
	// Payload is the packet body (Kind 'p' only).
	Payload []byte
}

// Decoder incrementally parses an RSP byte stream.
type Decoder struct {
	buf     []byte
	inPkt   bool
	skip    bool // dropping an oversize packet until the next '$'
	csDigit int
	cs      [2]byte
}

// Feed consumes bytes and returns the events they complete. Packets with
// bad checksums are dropped (an implementation would NAK; over our
// reliable channels this cannot happen except from corruption, which the
// stability experiments exercise deliberately). A packet whose body
// grows past MaxPayload is dropped unacknowledged, and every byte up to
// the next '$' with it.
func (d *Decoder) Feed(data []byte) []Event {
	var evs []Event
	for _, b := range data {
		switch {
		case d.skip && b != PacketStart:
		case !d.inPkt:
			switch b {
			case PacketStart:
				d.inPkt, d.skip = true, false
				d.buf = d.buf[:0]
				d.csDigit = 0
			case Ack:
				evs = append(evs, Event{Kind: Ack})
			case Nak:
				evs = append(evs, Event{Kind: Nak})
			case InterruptByte:
				evs = append(evs, Event{Kind: 'i'})
			}
		case d.csDigit > 0:
			d.cs[d.csDigit-1] = b
			d.csDigit++
			if d.csDigit == 3 {
				d.inPkt = false
				d.csDigit = 0
				want, err := parseHexByte(d.cs[0], d.cs[1])
				if err == nil && want == Checksum(d.buf) {
					evs = append(evs, Event{Kind: 'p', Payload: append([]byte{}, d.buf...)})
				}
			}
		case b == PacketEnd:
			d.csDigit = 1
		case len(d.buf) == MaxPayload:
			d.inPkt, d.skip = false, true
		default:
			d.buf = append(d.buf, b)
		}
	}
	return evs
}

func parseHexByte(hi, lo byte) (byte, error) {
	h, err1 := hexVal(hi)
	l, err2 := hexVal(lo)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("rsp: bad hex")
	}
	return h<<4 | l, nil
}

func hexVal(b byte) (byte, error) {
	switch {
	case b >= '0' && b <= '9':
		return b - '0', nil
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10, nil
	case b >= 'A' && b <= 'F':
		return b - 'A' + 10, nil
	}
	return 0, fmt.Errorf("rsp: bad hex digit %q", b)
}

// HexEncode renders binary data as lowercase hex (RSP memory contents).
func HexEncode(data []byte) string {
	var b strings.Builder
	for _, x := range data {
		b.WriteByte(hexDigits[x>>4])
		b.WriteByte(hexDigits[x&0xF])
	}
	return b.String()
}

// HexDecode parses lowercase/uppercase hex into bytes.
func HexDecode(s string) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("rsp: odd hex length")
	}
	out := make([]byte, len(s)/2)
	for i := 0; i < len(out); i++ {
		v, err := parseHexByte(s[2*i], s[2*i+1])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Word32 encodes a 32-bit register value in RSP order (little-endian hex).
func Word32(v uint32) string {
	return HexEncode([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// ParseWord32 decodes a little-endian hex register value.
func ParseWord32(s string) (uint32, error) {
	b, err := HexDecode(s)
	if err != nil || len(b) != 4 {
		return 0, fmt.Errorf("rsp: bad word %q", s)
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}
