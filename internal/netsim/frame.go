// Package netsim provides the network side of the reproduction: Ethernet/
// IPv4/UDP frame construction and parsing, Internet checksums, the
// deterministic "disk" data pattern, and a receiving sink that validates
// the guest's transmit stream and measures achieved throughput.
package netsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Header sizes.
const (
	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	HeadersLen    = EthHeaderLen + IPv4HeaderLen + UDPHeaderLen

	// EtherTypeIPv4 is the only ethertype the reproduction uses.
	EtherTypeIPv4 = 0x0800
	// ProtoUDP is the IPv4 protocol number for UDP.
	ProtoUDP = 17

	// WireOverhead is per-frame bytes on the wire beyond the frame itself:
	// preamble+SFD (8), FCS (4), and inter-frame gap (12).
	WireOverhead = 24
)

// FlowParams identifies the UDP flow the guest transmits.
type FlowParams struct {
	SrcMAC, DstMAC   [6]byte
	SrcIP, DstIP     [4]byte
	SrcPort, DstPort uint16
}

// DefaultFlow is the flow used by the streaming workload.
func DefaultFlow() FlowParams {
	return FlowParams{
		SrcMAC:  [6]byte{0x02, 0x48, 0x58, 0x00, 0x00, 0x01},
		DstMAC:  [6]byte{0x02, 0x48, 0x58, 0x00, 0x00, 0x02},
		SrcIP:   [4]byte{10, 0, 0, 1},
		DstIP:   [4]byte{10, 0, 0, 2},
		SrcPort: 5004,
		DstPort: 5004,
	}
}

// BuildHeaderTemplate builds the 42-byte Ethernet+IPv4+UDP header for a
// fixed payload length. The IPv4 header checksum is filled in; the UDP
// checksum is left zero (legal for UDP over IPv4, or filled later by
// software or NIC offload).
func BuildHeaderTemplate(f FlowParams, payloadLen int) []byte {
	h := make([]byte, HeadersLen)
	copy(h[0:6], f.DstMAC[:])
	copy(h[6:12], f.SrcMAC[:])
	binary.BigEndian.PutUint16(h[12:14], EtherTypeIPv4)

	ip := h[EthHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	totalLen := IPv4HeaderLen + UDPHeaderLen + payloadLen
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	ip[8] = 64 // TTL
	ip[9] = ProtoUDP
	copy(ip[12:16], f.SrcIP[:])
	copy(ip[16:20], f.DstIP[:])
	csum := Checksum(ip[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(ip[10:12], csum)

	udp := h[EthHeaderLen+IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], f.SrcPort)
	binary.BigEndian.PutUint16(udp[2:4], f.DstPort)
	binary.BigEndian.PutUint16(udp[4:6], uint16(UDPHeaderLen+payloadLen))
	return h
}

// Checksum computes the Internet ones'-complement checksum over data.
func Checksum(data []byte) uint16 {
	return FinishChecksum(SumBytes(0, data))
}

// SumBytes accumulates data, as big-endian 16-bit words (an odd final
// byte padded with zero), into a running ones'-complement sum. The
// result is congruent to sum plus the words modulo 0xFFFF and is zero
// only if sum is zero and data is all zeros, which is all FinishChecksum
// depends on; callers may add a few 16-bit terms to it before finishing.
//
// The data is summed eight bytes at a time as native little-endian
// words with deferred carries and folded once: the ones'-complement sum
// is byte-order independent (RFC 1071 §2(B)), so the folded sum of the
// little-endian words is the byte-swapped sum of the big-endian ones.
func SumBytes(sum uint32, data []byte) uint32 {
	return foldSum(sumWords(0, data), sum)
}

// sumWords adds data, as little-endian 64-bit words with the end-around
// carry, to acc. A final partial word is zero-padded, so a run of calls
// over consecutive pieces sums their concatenation provided every piece
// but the last has even length.
func sumWords(acc uint64, data []byte) uint64 {
	var c uint64
	for len(data) >= 32 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[8:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[16:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[24:]), c)
		data = data[32:]
	}
	for len(data) >= 8 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data), c)
		data = data[8:]
	}
	if len(data) > 0 {
		acc, c = bits.Add64(acc, loadTail(data), c)
	}
	acc, c = bits.Add64(acc, 0, c)
	return acc + c
}

// foldSum folds a little-endian word sum from sumWords to 16 bits,
// swaps it into network byte order and adds it to the big-endian running
// sum. Every fold adds the high half to the low half, which keeps the
// value modulo 0xFFFF and never turns a nonzero sum into zero; the
// final fold keeps the result within 32 bits even for a running sum
// near 2³².
func foldSum(acc uint64, sum uint32) uint32 {
	acc = acc>>32 + acc&0xFFFFFFFF
	acc = acc>>32 + acc&0xFFFFFFFF
	acc = acc>>16 + acc&0xFFFF
	acc = acc>>16 + acc&0xFFFF
	s := uint64(sum) + uint64(bits.ReverseBytes16(uint16(acc)))
	return uint32(s>>32 + s&0xFFFFFFFF)
}

// FinishChecksum folds and complements a running sum.
func FinishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// UDPChecksum computes the UDP checksum (with IPv4 pseudo-header) for a
// complete frame. Returns the value to store at the UDP checksum field.
func UDPChecksum(frame []byte) uint16 {
	ip := frame[EthHeaderLen:]
	udp := ip[IPv4HeaderLen:]
	udpLen := binary.BigEndian.Uint16(udp[4:6])
	// UDP header with checksum field skipped (summed as zero), plus payload.
	sum := pseudoSum(ip, udpLen)
	sum = SumBytes(sum, udp[0:6])
	sum = SumBytes(sum, udp[8:udpLen])
	c := FinishChecksum(sum)
	if c == 0 {
		c = 0xFFFF // UDP: transmitted zero means "no checksum"
	}
	return c
}

// pseudoSum is the running sum of the UDP/IPv4 pseudo-header: source
// and destination addresses, protocol and UDP length.
func pseudoSum(ip []byte, udpLen uint16) uint32 {
	return SumBytes(0, ip[12:20]) + ProtoUDP + uint32(udpLen)
}

// OffloadChecksums performs what the NIC's checksum-offload engine does:
// recompute the IPv4 header checksum and fill in the UDP checksum, in
// place.
func OffloadChecksums(frame []byte) {
	if len(frame) < HeadersLen {
		return
	}
	ip := frame[EthHeaderLen:]
	ip[10], ip[11] = 0, 0
	c := Checksum(ip[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(ip[10:12], c)
	udp := ip[IPv4HeaderLen:]
	udp[6], udp[7] = 0, 0
	u := UDPChecksum(frame)
	binary.BigEndian.PutUint16(udp[6:8], u)
}

// Packet is a parsed UDP datagram.
type Packet struct {
	Flow    FlowParams
	Payload []byte
	// UDPChecksumOK is true if the checksum was present and valid, or
	// absent (zero, which UDP/IPv4 permits).
	UDPChecksumOK bool
}

// ParseFrame parses and validates an Ethernet+IPv4+UDP frame.
func ParseFrame(frame []byte) (*Packet, error) {
	ip, udp, err := parseHeaders(frame)
	if err != nil {
		return nil, err
	}
	p := &Packet{Payload: udp[UDPHeaderLen:]}
	copy(p.Flow.DstMAC[:], frame[0:6])
	copy(p.Flow.SrcMAC[:], frame[6:12])
	copy(p.Flow.SrcIP[:], ip[12:16])
	copy(p.Flow.DstIP[:], ip[16:20])
	p.Flow.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	p.Flow.DstPort = binary.BigEndian.Uint16(udp[2:4])
	// A zero checksum field means the checksum is not used.
	p.UDPChecksumOK = !udpChecksumUsed(udp) || udpSumOK(ip, len(udp), sumWords(0, udp))
	return p, nil
}

// parseHeaders validates the Ethernet, IPv4 and UDP headers of a frame
// and returns its IPv4 header and its UDP datagram (header and payload,
// cut at the UDP length). It does not check the UDP checksum. ParseFrame
// and Receiver.Deliver share it, so both apply the same header checks in
// the same order.
func parseHeaders(frame []byte) (ip, udp []byte, err error) {
	if len(frame) < HeadersLen {
		return nil, nil, fmt.Errorf("netsim: frame too short (%d bytes)", len(frame))
	}
	if et := binary.BigEndian.Uint16(frame[12:14]); et != EtherTypeIPv4 {
		return nil, nil, fmt.Errorf("netsim: ethertype 0x%04x not IPv4", et)
	}
	ip = frame[EthHeaderLen:]
	if ip[0] != 0x45 {
		return nil, nil, fmt.Errorf("netsim: unsupported IP version/IHL 0x%02x", ip[0])
	}
	if Checksum(ip[:IPv4HeaderLen]) != 0 {
		return nil, nil, fmt.Errorf("netsim: bad IPv4 header checksum")
	}
	if ip[9] != ProtoUDP {
		return nil, nil, fmt.Errorf("netsim: protocol %d not UDP", ip[9])
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen+EthHeaderLen > len(frame) {
		return nil, nil, fmt.Errorf("netsim: IP total length %d exceeds frame", totalLen)
	}
	if totalLen < IPv4HeaderLen {
		return nil, nil, fmt.Errorf("netsim: IP total length %d shorter than its header", totalLen)
	}
	udp = ip[IPv4HeaderLen:totalLen]
	// A total length that cuts into the UDP header still leaves the UDP
	// length field inside the frame (len(frame) >= HeadersLen), so it is
	// read past len(udp) and then rejected.
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen < UDPHeaderLen || udpLen > len(udp) {
		return nil, nil, fmt.Errorf("netsim: bad UDP length %d", udpLen)
	}
	return ip, udp[:udpLen], nil
}

// udpChecksumUsed reports whether a UDP datagram carries a checksum: a
// zero checksum field means the sender did not compute one.
func udpChecksumUsed(udp []byte) bool { return udp[6]|udp[7] != 0 }

// udpSumOK reports whether a UDP datagram of udpLen bytes, which
// sumWords added up to acc, checksums correctly under the pseudo-header
// of ip.
func udpSumOK(ip []byte, udpLen int, acc uint64) bool {
	return FinishChecksum(foldSum(acc, pseudoSum(ip, uint16(udpLen)))) == 0
}
