package replay

import (
	"bytes"
	"sync"
	"testing"

	"lvmm/internal/machine"
)

// TestAsyncRecordDifferential is the async pipeline's correctness
// anchor: recording the same deterministic run through the pipelined
// writer and through the synchronous path must produce byte-identical
// containers — not just equivalent ones — and the recorded trace must
// replay bit-identically on both execution engines. Byte-identity is
// what makes the pipeline invisible: trace files hash the same, diff
// the same, and golden fixtures stay valid regardless of which writer
// produced them.
func TestAsyncRecordDifferential(t *testing.T) {
	opts := Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3, EventBatch: 64}
	record := func(sync bool) ([]byte, StreamStats) {
		t.Helper()
		m, v := buildTrapDense(t, false)
		var buf bytes.Buffer
		o := opts
		o.Sync = sync
		rec, err := NewStreamRecorder(&buf, m, v, nil, TraceMeta{Custom: true}, o)
		if err != nil {
			t.Fatal(err)
		}
		rec.Start()
		if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
			t.Fatalf("record (sync=%v): stop %v pc=%08x", sync, reason, m.CPU.PC)
		}
		stats, err := rec.FinishStream()
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), stats
	}

	asyncBytes, asyncStats := record(false)
	syncBytes, syncStats := record(true)

	if !bytes.Equal(asyncBytes, syncBytes) {
		n := len(asyncBytes)
		if len(syncBytes) < n {
			n = len(syncBytes)
		}
		diff := n
		for i := 0; i < n; i++ {
			if asyncBytes[i] != syncBytes[i] {
				diff = i
				break
			}
		}
		t.Fatalf("async and sync containers diverge at byte %d (sizes %d vs %d)",
			diff, len(asyncBytes), len(syncBytes))
	}
	if asyncStats != syncStats {
		t.Fatalf("stats diverge:\nasync: %+v\nsync:  %+v", asyncStats, syncStats)
	}
	if asyncStats.Deltas == 0 || asyncStats.Keyframes < 2 {
		t.Fatalf("workload too small to exercise the pipeline: %+v", asyncStats)
	}

	// The shared container replays bit-identically on both engines.
	tr, err := ReadTrace(bytes.NewReader(asyncBytes))
	if err != nil {
		t.Fatal(err)
	}
	for _, slow := range []bool{false, true} {
		m2, v2 := buildTrapDense(t, slow)
		rp, err := NewReplayer(openTrace(t, tr), m2, v2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.RunToEnd(); err != nil {
			t.Fatalf("replay (slow=%v) diverged: %v", slow, err)
		}
	}
}

// TestAsyncWriterRaceHammer drives the async writer's full concurrent
// surface under the race detector: a producer enqueueing segments and
// sealing, encoder/writer goroutines inside the pipeline, error
// injection at varying byte offsets, and a second goroutine polling
// Err the whole time (the documented cross-goroutine read). A tiny
// queue keeps backpressure engaged so the producer actually blocks on
// a full pipeline.
func TestAsyncWriterRaceHammer(t *testing.T) {
	limits := []int64{0, 1, 9, 100, 1_000, 5_000, 1 << 30}
	for iter := 0; iter < 4; iter++ {
		for _, limit := range limits {
			sw, err := newSegWriter(&failWriter{limit: limit})
			if err != nil {
				if limit >= 16 {
					t.Fatalf("limit %d: header rejected: %v", limit, err)
				}
				continue
			}
			aw := newAsyncSegWriter(sw, 2)

			stop := make(chan struct{})
			var poll sync.WaitGroup
			poll.Add(1)
			go func() {
				defer poll.Done()
				for {
					select {
					case <-stop:
						return
					default:
						aw.Err()
					}
				}
			}()

			aw.enqueue(segMeta, TraceMeta{Version: TraceVersion, Label: "hammer"}, decoNone())
			for i := 0; i < 40; i++ {
				batch := make([]Event, 8)
				for j := range batch {
					batch[j] = Event{
						Kind:  EvIRQ,
						Cycle: uint64(iter<<20 | i<<8 | j),
						Instr: uint64(i*8 + j),
						Line:  uint8(j),
					}
				}
				if err := aw.enqueue(segEvents, batch, decoEvents(batch)); err != nil {
					break
				}
			}
			sealErr := aw.seal()
			close(stop)
			poll.Wait()

			if limit < 5_000 && sealErr == nil {
				t.Fatalf("limit %d: pipeline over a failing sink sealed cleanly", limit)
			}
			if limit == 1<<30 && sealErr != nil {
				t.Fatalf("healthy sink: seal failed: %v", sealErr)
			}
			if sealErr != nil && aw.Err() == nil {
				t.Fatalf("limit %d: seal returned %v but Err() is nil", limit, sealErr)
			}
			// seal is idempotent: a second call reports the same outcome
			// without deadlocking on the already-drained pipeline.
			if again := aw.seal(); (again == nil) != (sealErr == nil) {
				t.Fatalf("limit %d: second seal %v, first %v", limit, again, sealErr)
			}
		}
	}
}

// TestAsyncBackpressureBounded pins the pipeline's memory bound: a
// stalled-then-failing sink must not let enqueue buffer unboundedly —
// the queue fills, the producer blocks until the writer drains or
// latches the error, and after the error every later enqueue drops its
// payload immediately.
func TestAsyncBackpressureBounded(t *testing.T) {
	sw, err := newSegWriter(&failWriter{limit: 200})
	if err != nil {
		t.Fatal(err)
	}
	aw := newAsyncSegWriter(sw, 1)
	// Far more segments than the queue holds: if enqueue did not block
	// and drop on error, the pipeline would retain them all.
	for i := 0; i < 1000; i++ {
		batch := []Event{{Kind: EvTimer, Cycle: uint64(i)}}
		if aw.enqueue(segEvents, batch, decoEvents(batch)) != nil {
			break
		}
	}
	if err := aw.seal(); err == nil {
		t.Fatal("failing sink sealed cleanly")
	}
}
