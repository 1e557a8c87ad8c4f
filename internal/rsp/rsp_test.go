package rsp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodeChecksum(t *testing.T) {
	pkt := Encode([]byte("g"))
	if string(pkt) != "$g#67" {
		t.Fatalf("packet %q", pkt)
	}
}

func TestDecoderRoundTrip(t *testing.T) {
	var d Decoder
	evs := d.Feed(Encode([]byte("m1000,40")))
	if len(evs) != 1 || evs[0].Kind != 'p' || string(evs[0].Payload) != "m1000,40" {
		t.Fatalf("events %v", evs)
	}
}

func TestDecoderFragmented(t *testing.T) {
	var d Decoder
	pkt := Encode([]byte("qSupported"))
	var evs []Event
	for _, b := range pkt {
		evs = append(evs, d.Feed([]byte{b})...)
	}
	if len(evs) != 1 || string(evs[0].Payload) != "qSupported" {
		t.Fatalf("events %v", evs)
	}
}

func TestDecoderBadChecksumDropped(t *testing.T) {
	var d Decoder
	evs := d.Feed([]byte("$g#00"))
	if len(evs) != 0 {
		t.Fatalf("bad checksum accepted: %v", evs)
	}
	// Decoder must recover for the next packet.
	evs = d.Feed(Encode([]byte("g")))
	if len(evs) != 1 {
		t.Fatal("decoder did not recover")
	}
}

func TestDecoderInterruptAndAcks(t *testing.T) {
	var d Decoder
	evs := d.Feed([]byte{Ack, InterruptByte, Nak})
	if len(evs) != 3 || evs[0].Kind != Ack || evs[1].Kind != 'i' || evs[2].Kind != Nak {
		t.Fatalf("events %v", evs)
	}
}

// Property: any payload round-trips through Encode/Decoder, even split at
// arbitrary boundaries.
func TestRoundTripProperty(t *testing.T) {
	f := func(payload []byte, split uint8) bool {
		// '$', '#' and 0x03 inside payloads would need escaping, which the
		// stub never produces; restrict to the alphabet actually used.
		for i := range payload {
			payload[i] = "0123456789abcdefOKES"[payload[i]%20]
		}
		pkt := Encode(payload)
		var d Decoder
		cut := int(split) % (len(pkt) + 1)
		evs := d.Feed(pkt[:cut])
		evs = append(evs, d.Feed(pkt[cut:])...)
		return len(evs) == 1 && evs[0].Kind == 'p' && bytes.Equal(evs[0].Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestHexCodec(t *testing.T) {
	data := []byte{0x00, 0xFF, 0x5A, 0x12}
	enc := HexEncode(data)
	if enc != "00ff5a12" {
		t.Fatalf("enc %q", enc)
	}
	dec, err := HexDecode(enc)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("dec % x err %v", dec, err)
	}
	if _, err := HexDecode("0"); err == nil {
		t.Error("odd length accepted")
	}
	if _, err := HexDecode("zz"); err == nil {
		t.Error("bad digits accepted")
	}
}

func TestWord32Codec(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xDEADBEEF, 0xFFFFFFFF} {
		got, err := ParseWord32(Word32(v))
		if err != nil || got != v {
			t.Errorf("word %08x: got %08x err %v", v, got, err)
		}
	}
}

// Property: Word32 is little-endian hex as GDB expects.
func TestWord32Property(t *testing.T) {
	f := func(v uint32) bool {
		s := Word32(v)
		b, err := HexDecode(s)
		if err != nil || len(b) != 4 {
			return false
		}
		return uint32(b[0])|uint32(b[1])<<8|uint32(b[2])<<16|uint32(b[3])<<24 == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderDropsOversizePacket feeds a packet one byte longer than
// MaxPayload (never terminated in time, as a hostile peer would send)
// followed by a valid packet: the decoder must drop the first without
// buffering it past the bound, and yield exactly the second.
func TestDecoderDropsOversizePacket(t *testing.T) {
	var d Decoder
	huge := Encode(bytes.Repeat([]byte{'a'}, MaxPayload+1))
	// Acks, nak and interrupt bytes inside the dropped packet's tail are
	// payload noise, not events.
	huge = append(huge[:len(huge)-3], '+', '-', InterruptByte, '#', '0', '0')
	evs := d.Feed(huge)
	evs = append(evs, d.Feed(Encode([]byte("g")))...)
	if len(evs) != 1 || evs[0].Kind != 'p' || string(evs[0].Payload) != "g" {
		t.Fatalf("events %v, want exactly the valid packet", evs)
	}
	if cap(d.buf) > 2*MaxPayload {
		t.Fatalf("decoder buffered %d bytes for an oversize packet", cap(d.buf))
	}
	// A packet of exactly MaxPayload bytes is legitimate and decodes.
	max := bytes.Repeat([]byte{'b'}, MaxPayload)
	if evs := d.Feed(Encode(max)); len(evs) != 1 || !bytes.Equal(evs[0].Payload, max) {
		t.Fatal("a MaxPayload-sized packet was not decoded")
	}
}

// FuzzDecoder: any byte stream, fed in three pieces, never panics, and
// every packet the decoder emits is within MaxPayload and carries the
// checksum that framed it. The middle piece is pad bytes of filler, so
// the fuzzer reaches the oversize path without a 128 KiB corpus entry.
func FuzzDecoder(f *testing.F) {
	f.Add(Encode([]byte("m1000,40")), uint16(3), uint32(0))
	f.Add([]byte("$g#00+-\x03$qSupported#37"), uint16(0), uint32(0))
	f.Add([]byte("$#00$c#63"), uint16(1), uint32(MaxPayload))
	f.Add([]byte("$#00$c#63"), uint16(1), uint32(MaxPayload+1))
	f.Fuzz(func(t *testing.T, data []byte, split uint16, pad uint32) {
		cut := int(split) % (len(data) + 1)
		filler := bytes.Repeat([]byte{'a'}, int(pad%(MaxPayload+64)))
		stream := append(append(append([]byte{}, data[:cut]...), filler...), data[cut:]...)
		var d Decoder
		evs := d.Feed(data[:cut])
		evs = append(evs, d.Feed(filler)...)
		evs = append(evs, d.Feed(data[cut:])...)
		for _, ev := range evs {
			if ev.Kind != 'p' {
				continue
			}
			if len(ev.Payload) > MaxPayload {
				t.Fatalf("emitted a %d-byte payload, bound is %d", len(ev.Payload), MaxPayload)
			}
			if !checksumFramed(stream, ev.Payload) {
				t.Fatalf("emitted payload %q is not followed anywhere in the stream by its checksum", ev.Payload)
			}
		}
	})
}

// checksumFramed reports whether payload occurs in data followed by '#'
// and two hex digits (either case) that are its checksum.
func checksumFramed(data, payload []byte) bool {
	want := Checksum(payload)
	for off := 0; ; off++ {
		i := bytes.Index(data[off:], append(append([]byte{}, payload...), PacketEnd))
		if i < 0 {
			return false
		}
		off += i
		end := off + len(payload) + 1
		if end+2 <= len(data) {
			if cs, err := parseHexByte(data[end], data[end+1]); err == nil && cs == want {
				return true
			}
		}
	}
}
