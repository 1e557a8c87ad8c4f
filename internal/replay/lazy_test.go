package replay

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lvmm/internal/asm"
	"lvmm/internal/machine"
)

// streamTrapDense records the trap-dense kernel to a v3 stream and
// returns the raw container bytes. testing.TB so fuzz targets can build
// seed traces from their *testing.F.
func streamTrapDense(t testing.TB, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	m, v := buildTrapDense(t, false)
	rec, err := NewStreamRecorder(&buf, m, v, nil, TraceMeta{Custom: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
		t.Fatalf("record: stop %v pc=%08x", reason, m.CPU.PC)
	}
	if _, err := rec.FinishStream(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lazyOpen opens raw v3 bytes as a LazyTrace with the given budget.
func lazyOpen(t *testing.T, data []byte, budget int64) *LazyTrace {
	t.Helper()
	lt, err := NewLazyTrace(bytes.NewReader(data), int64(len(data)), budget)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

// openTrace opens an in-memory trace as the LazyTrace a Replayer reads.
func openTrace(t testing.TB, tr *Trace) *LazyTrace {
	t.Helper()
	lt, err := OpenTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

// TestLazyReplayDifferential proves the lazy reader is the full loader:
// its stubs, events, end seal and every decoded checkpoint must match
// ReadTrace's, and the trace must replay through it end to end on both
// execution engines.
func TestLazyReplayDifferential(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3, EventBatch: 64})

	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lt := lazyOpen(t, data, 0)
	defer lt.Close()

	if got, want := lt.NumEvents(), len(tr.Events); got != want {
		t.Fatalf("lazy event count %d, full loader has %d", got, want)
	}
	if got, want := lt.NumCheckpoints(), len(tr.Checkpoints); got != want {
		t.Fatalf("lazy checkpoint count %d, full loader has %d", got, want)
	}
	for i := range tr.Checkpoints {
		cp := &tr.Checkpoints[i]
		cm := lt.CheckpointMeta(i)
		if cm.Index != cp.Index || cm.Instr != cp.Instr || cm.Cycle != cp.Cycle ||
			cm.EventIndex != cp.EventIndex || cm.Delta != cp.Delta {
			t.Fatalf("checkpoint %d stub %+v does not match full loader's %d/%d/%d/%d/%v",
				i, cm, cp.Index, cp.Instr, cp.Cycle, cp.EventIndex, cp.Delta)
		}
		got, err := lt.Checkpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("checkpoint %d decodes differently through the lazy reader", i)
		}
	}
	ec, ei, er, ed := lt.End()
	if ec != tr.EndCycle || ei != tr.EndInstr || er != tr.EndReason || ed != tr.EndDigest {
		t.Fatal("lazy end seal does not match the full loader's")
	}
	for i := range tr.Events {
		ev, err := lt.Event(i)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != tr.Events[i].Kind || ev.Cycle != tr.Events[i].Cycle ||
			ev.Instr != tr.Events[i].Instr || ev.Digest != tr.Events[i].Digest {
			t.Fatalf("event %d differs between lazy and full loads", i)
		}
	}

	for _, slow := range []bool{false, true} {
		lt2 := lazyOpen(t, data, 0)
		m, v := buildTrapDense(t, slow)
		rp, err := NewReplayer(lt2, m, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.RunToEnd(); err != nil {
			t.Fatalf("lazy replay (slow=%v) diverged: %v", slow, err)
		}
		lt2.Close()
	}
}

// TestLazyReplayBoundedMemory pins the replay-side O(segment) property,
// mirroring TestStreamBoundedMemory on the read path: a 4x longer
// recording replayed through the LRU-backed engine holds no more
// resident segment bytes than the configured budget — the high-water
// mark does not grow with trace length.
func TestLazyReplayBoundedMemory(t *testing.T) {
	record := func(cycles uint64) []byte {
		var buf bytes.Buffer
		m, v := buildEndless(t)
		rec, err := NewStreamRecorder(&buf, m, v, nil, TraceMeta{Custom: true},
			Options{SnapshotInterval: 10_000_000, KeyframeEvery: 4, EventBatch: 128, MaxSnapshots: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		rec.Start()
		m.Run(cycles)
		if _, err := rec.FinishStream(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	shortData := record(100_000_000)
	longData := record(400_000_000)
	if len(longData) <= 2*len(shortData) {
		t.Fatalf("long recording is not meaningfully longer: %d vs %d bytes", len(longData), len(shortData))
	}

	const budget = 1 << 20
	replay := func(data []byte) *LazyTrace {
		lt := lazyOpen(t, data, budget)
		m, v := buildEndless(t)
		rp, err := NewReplayer(lt, m, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.RunToEnd(); err != nil {
			t.Fatalf("lazy replay diverged: %v", err)
		}
		return lt
	}
	shortLT := replay(shortData)
	defer shortLT.Close()
	longLT := replay(longData)
	defer longLT.Close()

	if shortLT.MaxResidentBytes() > budget || longLT.MaxResidentBytes() > budget {
		t.Fatalf("resident high-water exceeded the budget: short %d, long %d, budget %d",
			shortLT.MaxResidentBytes(), longLT.MaxResidentBytes(), budget)
	}
	// The long replay must actually have cycled segments through the
	// budget: more faults than a trace that fits resident would take.
	if longLT.Faults() <= shortLT.Faults() {
		t.Fatalf("long replay faulted %d segments, short %d — cache never cycled",
			longLT.Faults(), shortLT.Faults())
	}
	// And the bound is about the budget, not the trace: the 4x trace's
	// high-water is no higher than the short one's budget ceiling.
	if longLT.MaxResidentBytes() > budget {
		t.Fatalf("4x trace high-water %d exceeds budget %d", longLT.MaxResidentBytes(), budget)
	}
}

// TestLazyEvictionReFaultDifferential is the LRU correctness property:
// drive reverse operations through a cache so small that checkpoint and
// event segments are evicted and re-faulted mid-session, and require
// every landing to be bit-identical to the same operations on a replay
// whose cache never evicts — on both execution engines.
func TestLazyEvictionReFaultDifferential(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 15_000_000, KeyframeEvery: 4, EventBatch: 32})
	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(trapDenseKernel)
	if err != nil {
		t.Fatal(err)
	}
	body := img.Symbols["body"]
	if body == 0 {
		t.Fatal("kernel has no body symbol")
	}

	for _, slow := range []bool{false, true} {
		// Reference: a budget no trace reaches, so nothing is evicted and
		// every segment decodes at most once.
		ref := lazyOpen(t, data, 1<<62)
		mF, vF := buildTrapDense(t, slow)
		rpF, err := NewReplayer(ref, mF, vF, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Subject: lazy replay with a budget far below the decoded trace
		// (one snapshot at a time, roughly), forcing eviction traffic.
		lt := lazyOpen(t, data, 96<<10)
		mL, vL := buildTrapDense(t, slow)
		rpL, err := NewReplayer(lt, mL, vL, nil)
		if err != nil {
			t.Fatal(err)
		}

		check := func(stage string) {
			t.Helper()
			if rpF.Position() != rpL.Position() {
				t.Fatalf("%s (slow=%v): positions diverge, full %d lazy %d", stage, slow, rpF.Position(), rpL.Position())
			}
			if dF, dL := Digest(mF, vF), Digest(mL, vL); dF != dL {
				t.Fatalf("%s (slow=%v): digest full %#x, lazy %#x", stage, slow, dF, dL)
			}
			if mF.Clock() != mL.Clock() {
				t.Fatalf("%s (slow=%v): clock full %d, lazy %d", stage, slow, mF.Clock(), mL.Clock())
			}
		}

		// Seek deep, then walk checkpoint positions newest-first: every
		// backwards seek restores a chain whose members were long evicted.
		for i := len(tr.Checkpoints) - 1; i >= 0; i-- {
			pos := tr.Checkpoints[i].Instr + 3
			if pos > tr.EndInstr {
				pos = tr.Checkpoints[i].Instr
			}
			if err := rpF.SeekInstr(pos); err != nil {
				t.Fatalf("full seek %d: %v", pos, err)
			}
			if err := rpL.SeekInstr(pos); err != nil {
				t.Fatalf("lazy seek %d: %v", pos, err)
			}
			check("checkpoint walk")
		}

		// Reverse operations from a mid-run landing.
		mid := tr.Checkpoints[len(tr.Checkpoints)/2].Instr + 40
		for _, rp := range []*Replayer{rpF, rpL} {
			if err := rp.SeekInstr(mid); err != nil {
				t.Fatal(err)
			}
		}
		check("mid-run landing")
		for _, rp := range []*Replayer{rpF, rpL} {
			if err := rp.ReverseStep(5_000); err != nil {
				t.Fatal(err)
			}
		}
		check("reverse-step")
		hitF, err := rpF.ReverseContinue([]uint32{body}, nil)
		if err != nil {
			t.Fatal(err)
		}
		hitL, err := rpL.ReverseContinue([]uint32{body}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hitF != hitL {
			t.Fatalf("reverse-continue hit full=%v lazy=%v", hitF, hitL)
		}
		check("reverse-continue")
		if mL.CPU.PC != mF.CPU.PC {
			t.Fatalf("landing pc full=%08x lazy=%08x", mF.CPU.PC, mL.CPU.PC)
		}

		// The point of the test: the lazy session must actually have
		// re-faulted — more decodes than the trace has segments.
		if lt.Faults() <= int64(len(lt.Reader().Segments())) {
			t.Fatalf("only %d faults over %d segments — the cache never evicted, shrink the budget",
				lt.Faults(), len(lt.Reader().Segments()))
		}
		if ref.Faults() > int64(len(ref.Reader().Segments())) {
			t.Fatalf("reference faulted %d times over %d segments — it evicted", ref.Faults(), len(ref.Reader().Segments()))
		}
		lt.Close()
		ref.Close()
	}
}

// TestLazyLiveCheckpoint proves session-created checkpoints work on a
// lazy source: a live snapshot inserted mid-timeline is used by a later
// reverse seek and survives cache eviction (it has no segment to
// re-fault from).
func TestLazyLiveCheckpoint(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3, EventBatch: 64})
	lt := lazyOpen(t, data, 96<<10)
	defer lt.Close()
	m, v := buildTrapDense(t, false)
	rp, err := NewReplayer(lt, m, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, endInstr, _, _ := lt.End()
	pos := endInstr / 2
	if err := rp.SeekInstr(pos); err != nil {
		t.Fatal(err)
	}
	dig := Digest(m, v)
	before := lt.NumCheckpoints()
	if _, err := rp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if lt.NumCheckpoints() != before+1 {
		t.Fatalf("live checkpoint not inserted: %d checkpoints, had %d", lt.NumCheckpoints(), before)
	}
	// Run away, thrash the cache, then come back: the landing must
	// restore from the live snapshot (nearest checkpoint at pos) and
	// reproduce the digest exactly.
	if err := rp.SeekInstr(endInstr); err != nil {
		t.Fatal(err)
	}
	if err := rp.SeekInstr(pos); err != nil {
		t.Fatal(err)
	}
	if got := Digest(m, v); got != dig {
		t.Fatalf("post-checkpoint re-seek digest %#x, want %#x", got, dig)
	}
	if got := lt.nearestCheckpoint(pos); lt.CheckpointMeta(got).Instr != pos {
		t.Fatalf("nearest checkpoint to %d is at %d — live snapshot not found by the seek planner",
			pos, lt.CheckpointMeta(got).Instr)
	}
}

// TestOpenSourceFile proves the format sniffing: a v3 file opens
// lazily on the file itself and replays, and the legacy v2 golden opens
// through its in-memory v3 conversion with everything the full loader
// sees. (The golden's replay runs at the root:
// TestV2GoldenReplaysBitIdentically.)
func TestOpenSourceFile(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000, KeyframeEvery: 1, EventBatch: 64})
	v3path := filepath.Join(t.TempDir(), "v3.trc")
	if err := os.WriteFile(v3path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lt3, err := OpenSourceFile(v3path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lt3.Close()
	if lt3.closer == nil {
		t.Fatal("v3 file was not opened lazily on the file itself")
	}
	m, v := buildTrapDense(t, false)
	rp, err := NewReplayer(lt3, m, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.RunToEnd(); err != nil {
		t.Fatalf("replay through the v3 file diverged: %v", err)
	}

	v2path := filepath.Join("..", "..", "testdata", "v2-golden.trc")
	if ver, err := TraceFileVersion(v2path); err != nil || ver != traceVersionV2 {
		t.Fatalf("golden reports version %d (%v), want %d", ver, err, traceVersionV2)
	}
	tr, err := ReadTraceFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	lt2, err := OpenSourceFile(v2path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	if lt2.NumEvents() != len(tr.Events) || lt2.NumCheckpoints() != len(tr.Checkpoints) {
		t.Fatalf("v2 conversion has %d events, %d checkpoints; full loader %d, %d",
			lt2.NumEvents(), lt2.NumCheckpoints(), len(tr.Events), len(tr.Checkpoints))
	}
	if ec, ei, er, ed := lt2.End(); ec != tr.EndCycle || ei != tr.EndInstr || er != tr.EndReason || ed != tr.EndDigest {
		t.Fatal("v2 conversion's end seal does not match the full loader's")
	}
	for i := range tr.Events {
		ev, err := lt2.Event(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ev, tr.Events[i]) {
			t.Fatalf("v2 conversion event %d differs from the full loader's", i)
		}
	}
	for i := range tr.Checkpoints {
		cp, err := lt2.Checkpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cp, &tr.Checkpoints[i]) {
			t.Fatalf("v2 conversion checkpoint %d differs from the full loader's", i)
		}
	}
}

// TestUnindexedBytesRejected splices bytes between two indexed segments
// and shifts the index so every entry still points at its segment. A
// trustworthy index tiles the file, so both the lazy open and the full
// loader must refuse the result; the same rebuild without the splice
// must open.
func TestUnindexedBytesRejected(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000, EventBatch: 64})
	sr, err := NewSegmentReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	splice := func(junk []byte) []byte {
		segs := append([]SegmentInfo(nil), sr.Segments()...)
		k := len(segs) / 2
		last := segs[len(segs)-1]
		var out bytes.Buffer
		out.Write(data[:segs[k].Offset])
		out.Write(junk)
		out.Write(data[segs[k].Offset : last.Offset+last.Bytes])
		for i := k; i < len(segs); i++ {
			segs[i].Offset += int64(len(junk))
		}
		sw := &segWriter{w: &out, off: int64(out.Len()), index: segs}
		if err := sw.finish(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if clean := splice(nil); !bytes.Equal(clean, data) {
		t.Fatal("rebuilding the container without a splice changed its bytes")
	}
	bad := splice(bytes.Repeat([]byte{0xA5}, 32))
	if _, err := NewLazyTrace(bytes.NewReader(bad), int64(len(bad)), 0); err == nil || !strings.Contains(err.Error(), "tile") {
		t.Fatalf("lazy open accepted unindexed bytes between segments (err %v)", err)
	}
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Fatal("ReadTrace accepted unindexed bytes between segments")
	}
}

// TestFailedSeekRestoresStopSink corrupts the last event segment, so a
// seek to the end fails mid-way on a decode error. The error must name
// the segment, and the debugger's stop sink — swapped out for the
// duration of the seek — must be back in place afterwards, or an
// attached debugger would never get another stop reply.
func TestFailedSeekRestoresStopSink(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3, EventBatch: 64})
	sr, err := NewSegmentReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var last SegmentInfo
	for _, si := range sr.Segments() {
		if si.IsEvents() {
			last = si
		}
	}
	bad := append([]byte(nil), data...)
	for i := last.Offset + 9; i < last.Offset+last.Bytes; i++ {
		bad[i] ^= 0xFF
	}
	lt := lazyOpen(t, bad, 0)
	defer lt.Close()
	m, v := buildTrapDense(t, false)
	rp, err := NewReplayer(lt, m, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	stops := 0
	v.SetStopSink(func(cause, addr uint32) { stops++ })

	_, endInstr, _, _ := lt.End()
	err = rp.SeekInstr(endInstr)
	want := fmt.Sprintf("replay: decoding events segment at offset %d: ", last.Offset)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("seek over a corrupt segment returned %v, want an error containing %q", err, want)
	}
	v.StopSink()(0, 0)
	if stops != 1 {
		t.Fatal("the debugger's stop sink was not restored after a failed seek")
	}
}
