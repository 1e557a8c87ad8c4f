package netsim

import (
	"encoding/binary"
	"math/bits"
)

// The streaming workload reads from a striped "media volume". Its contents
// are a deterministic pattern of the absolute volume offset, so the
// receiver can verify end-to-end data integrity (disk DMA → guest copy →
// NIC DMA → wire) without any side channel: a corrupted byte anywhere in
// the pipeline shows up as a pattern mismatch.

// Pattern constants: byte i of the volume at offset off with seed s is
// the top byte of (off+i+s·patSeedMul)·patMul + patAdd.
const (
	patMul     = 0x9E3779B97F4A7C15
	patSeedMul = 0xA24BAED4963EE407
	patAdd     = 0xDEADBEEF
)

// patStep(k) is k·patMul mod 2⁶⁴: the distance between the generator
// values of two pattern bytes k apart.
const (
	patStep1 = patMul * 1 % (1 << 64)
	patStep2 = patMul * 2 % (1 << 64)
	patStep3 = patMul * 3 % (1 << 64)
	patStep4 = patMul * 4 % (1 << 64)
	patStep5 = patMul * 5 % (1 << 64)
	patStep6 = patMul * 6 % (1 << 64)
	patStep7 = patMul * 7 % (1 << 64)
	patStep8 = patMul * 8 % (1 << 64)
)

// PatternByte returns the volume content byte at absolute offset off.
func PatternByte(off uint64) byte { return PatternByteSeeded(off, 0) }

// PatternByteSeeded returns the volume content byte at absolute offset
// off for the given content seed. Fleet scenarios use distinct seeds to
// stream distinct (but equally deterministic) volume contents through
// the same pipeline: the data path cost is content-independent, so the
// simulated metrics do not depend on the seed, while end-to-end
// validation still catches any corruption.
func PatternByteSeeded(off, seed uint64) byte {
	// A cheap mix of the offset; distinct from simple counters so that
	// off-by-one and wrong-stride bugs cannot alias to a match. The
	// seed enters pre-multiply so adjacent seeds diverge everywhere.
	return byte(patternGen(off, seed) >> 56)
}

// patternGen returns the generator value of the pattern byte at off:
// that byte is its top byte, and the byte k places later is the top
// byte of the value plus patStep(k).
func patternGen(off, seed uint64) uint64 {
	return (off+seed*patSeedMul)*patMul + patAdd
}

// patternWord returns the eight pattern bytes starting at generator
// value y, packed little-endian: byte k is the top byte of y + k·patMul,
// so each lane is one add and a shift and mask off the same base.
func patternWord(y uint64) uint64 {
	return y>>56 |
		(y+patStep1)>>48&0xFF00 |
		(y+patStep2)>>40&0xFF0000 |
		(y+patStep3)>>32&0xFF000000 |
		(y+patStep4)>>24&0xFF00000000 |
		(y+patStep5)>>16&0xFF0000000000 |
		(y+patStep6)>>8&0xFF000000000000 |
		(y+patStep7)&0xFF00000000000000
}

// FillPattern fills buf with the volume pattern starting at offset off.
func FillPattern(buf []byte, off uint64) { FillPatternSeeded(buf, off, 0) }

// FillPatternSeeded fills buf with the seeded volume pattern, eight
// bytes per store. Disk reads regenerate volume content through this on
// every DMA, so it is on the simulation hot path.
func FillPatternSeeded(buf []byte, off, seed uint64) {
	y := patternGen(off, seed)
	for len(buf) >= 8 {
		binary.LittleEndian.PutUint64(buf, patternWord(y))
		y += patStep8
		buf = buf[8:]
	}
	if len(buf) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], patternWord(y))
		copy(buf, w[:])
	}
}

// CheckPattern verifies buf against the pattern starting at off, returning
// the index of the first mismatch or -1 if it matches.
func CheckPattern(buf []byte, off uint64) int {
	return CheckPatternSeeded(buf, off, 0)
}

// CheckPatternSeeded verifies buf against the seeded pattern eight bytes
// at a time, returning the index of the first mismatching byte or -1.
func CheckPatternSeeded(buf []byte, off, seed uint64) int {
	y := patternGen(off, seed)
	i := 0
	for ; len(buf) >= 8; i += 8 {
		if d := binary.LittleEndian.Uint64(buf) ^ patternWord(y); d != 0 {
			return i + bits.TrailingZeros64(d)/8
		}
		y += patStep8
		buf = buf[8:]
	}
	if d := loadTail(buf) ^ patternWord(y)&tailMask(len(buf)); d != 0 {
		return i + bits.TrailingZeros64(d)/8
	}
	return -1
}

// loadTail returns the last len(b) < 8 bytes of a buffer as a
// little-endian word, zero-padded.
func loadTail(b []byte) uint64 {
	var w [8]byte
	copy(w[:], b)
	return binary.LittleEndian.Uint64(w[:])
}

// tailMask selects the low n < 8 bytes of a word.
func tailMask(n int) uint64 { return 1<<(8*uint(n)) - 1 }
