package netsim

import (
	"encoding/binary"
	"fmt"
)

// Byte-at-a-time reference implementations of the data path. The word-wide
// kernels in pattern.go, frame.go and receiver.go must agree with these
// exactly; the fuzzers in fuzz_test.go check that they do.

// refFillPattern writes one pattern byte per step: the multiply
// strength-reduces to an add, since (base+i+1)·M is (base+i)·M + M.
func refFillPattern(buf []byte, off, seed uint64) {
	x := (off + seed*patSeedMul) * patMul
	for i := range buf {
		buf[i] = byte((x + patAdd) >> 56)
		x += patMul
	}
}

// refCheckPattern compares one pattern byte per step, returning the
// index of the first mismatch or -1.
func refCheckPattern(buf []byte, off, seed uint64) int {
	x := (off + seed*patSeedMul) * patMul
	for i := range buf {
		if buf[i] != byte((x+patAdd)>>56) {
			return i
		}
		x += patMul
	}
	return -1
}

// refSum adds data as big-endian 16-bit words, an odd final byte padded
// with zero, to sum. It is wide enough that no sum over a test input
// overflows, so it is the exact value a ones'-complement sum stands for.
func refSum(sum uint64, data []byte) uint64 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if n%2 == 1 {
		sum += uint64(data[n-1]) << 8
	}
	return sum
}

// refFinish folds and complements a reference sum.
func refFinish(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// refChecksum is the Internet checksum over data.
func refChecksum(data []byte) uint16 { return refFinish(refSum(0, data)) }

// refParseFrame is the parser the receiver used to call: header checks,
// then a separate checksum pass over the whole datagram. Its one
// addition is the guard against an IP total length below the IP header,
// which used to panic.
func refParseFrame(frame []byte) (*Packet, error) {
	if len(frame) < HeadersLen {
		return nil, fmt.Errorf("netsim: frame too short (%d bytes)", len(frame))
	}
	if et := binary.BigEndian.Uint16(frame[12:14]); et != EtherTypeIPv4 {
		return nil, fmt.Errorf("netsim: ethertype 0x%04x not IPv4", et)
	}
	ip := frame[EthHeaderLen:]
	if ip[0] != 0x45 {
		return nil, fmt.Errorf("netsim: unsupported IP version/IHL 0x%02x", ip[0])
	}
	if refChecksum(ip[:IPv4HeaderLen]) != 0 {
		return nil, fmt.Errorf("netsim: bad IPv4 header checksum")
	}
	if ip[9] != ProtoUDP {
		return nil, fmt.Errorf("netsim: protocol %d not UDP", ip[9])
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen+EthHeaderLen > len(frame) {
		return nil, fmt.Errorf("netsim: IP total length %d exceeds frame", totalLen)
	}
	if totalLen < IPv4HeaderLen {
		return nil, fmt.Errorf("netsim: IP total length %d shorter than its header", totalLen)
	}
	udp := ip[IPv4HeaderLen:totalLen]
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen < UDPHeaderLen || udpLen > len(udp) {
		return nil, fmt.Errorf("netsim: bad UDP length %d", udpLen)
	}
	p := &Packet{Payload: udp[UDPHeaderLen:udpLen]}
	copy(p.Flow.DstMAC[:], frame[0:6])
	copy(p.Flow.SrcMAC[:], frame[6:12])
	copy(p.Flow.SrcIP[:], ip[12:16])
	copy(p.Flow.DstIP[:], ip[16:20])
	p.Flow.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	p.Flow.DstPort = binary.BigEndian.Uint16(udp[2:4])
	if binary.BigEndian.Uint16(udp[6:8]) == 0 {
		p.UDPChecksumOK = true
	} else {
		sum := refSum(0, ip[12:20]) + ProtoUDP + uint64(udpLen)
		p.UDPChecksumOK = refFinish(refSum(sum, udp[:udpLen])) == 0
	}
	return p, nil
}

// refDeliver is Receiver.Deliver built from refParseFrame and
// refCheckPattern: parse and checksum, then check the pattern in a pass
// of its own.
func refDeliver(r *Receiver, frame []byte, cycle uint64) {
	if r.Frames == 0 {
		r.FirstCycle = cycle
	}
	r.LastCycle = cycle
	r.Frames++
	r.WireBytes += uint64(len(frame) + WireOverhead)

	p, err := refParseFrame(frame)
	if err != nil {
		r.ParseErrors++
		r.lastError = err.Error()
		return
	}
	if !p.UDPChecksumOK {
		r.ChecksumBad++
		r.lastError = "bad UDP checksum"
		return
	}
	r.PayloadBytes += uint64(len(p.Payload))
	if len(p.Payload) < StampLen {
		r.ParseErrors++
		r.lastError = "payload shorter than stamp"
		return
	}
	seq := binary.LittleEndian.Uint32(p.Payload[0:4])
	volOff := binary.LittleEndian.Uint32(p.Payload[4:8])
	if seq != r.nextSeq {
		r.SeqErrors++
		r.lastError = fmt.Sprintf("sequence %d, expected %d", seq, r.nextSeq)
		r.nextSeq = seq
	}
	r.nextSeq++
	if i := refCheckPattern(p.Payload[StampLen:], uint64(volOff)+StampLen, r.PatternSeed); i >= 0 {
		r.PatternErrors++
		r.lastError = fmt.Sprintf("pattern mismatch at payload offset %d (vol 0x%x)", i+StampLen, volOff)
	}
}
