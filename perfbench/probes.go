package main

import (
	"fmt"
	"os"
	"time"

	"lvmm/internal/guest"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/replay"
	"lvmm/internal/vmm"
)

// Layer probes time one public function of a layer on fixed inputs. They
// run only in the traced run, after the workload, and feed the
// per-layer metrics the workload's own calls cannot isolate.

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 5

// probeLayers runs every probe, decoding the given traces, and counts
// each probe as an operation.
func probeLayers(e *env, res *result, traces []string) {
	res.check(probeNetsim(e, res))
	res.check(probeMachine(e, res))
	if len(traces) > 0 {
		res.check(probeDecode(e, res, traces))
	}
}

// loadKernel fetches the streaming guest kernel, which guest.Kernel
// assembles on the first call of a process and caches after it.
func loadKernel(e *env) {
	sp := e.tr.begin(e.root, "guest.Kernel")
	guest.Kernel()
	e.tr.end(sp)
}

// probeNetsim times the workload synthesis on frame-sized buffers: the
// disk's pattern fill, the receiver's pattern check and the checksum
// sum, in nanoseconds per KiB.
func probeNetsim(e *env, res *result) error {
	const frame = 1024 + netsim.HeadersLen
	const frames = 4096
	parent := e.tr.begin(e.root, "probe:netsim")
	defer e.tr.end(parent)
	buf := make([]byte, frame)
	perKB := func(name string, fn func(off uint64)) float64 {
		var ns []float64
		for rep := 0; rep < probeReps; rep++ {
			sp := e.tr.begin(parent, name)
			t0 := time.Now()
			for i := uint64(0); i < frames; i++ {
				fn(i * frame)
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
			e.tr.end(sp)
		}
		return median(ns) / (frames * frame / 1024)
	}
	var bad int
	var sum uint32
	res.layer["netsim.fill_ns_per_kb"] = perKB("netsim.FillPatternSeeded", func(off uint64) {
		netsim.FillPatternSeeded(buf, off, e.seed)
	})
	res.layer["netsim.check_ns_per_kb"] = perKB("netsim.CheckPatternSeeded", func(off uint64) {
		// buf holds the last frame filled; only that offset matches.
		if netsim.CheckPatternSeeded(buf, (frames-1)*frame, e.seed) >= 0 {
			bad++
		}
	})
	res.layer["netsim.sum_ns_per_kb"] = perKB("netsim.SumBytes", func(uint64) {
		sum = netsim.SumBytes(sum, buf)
	})
	if bad > 0 {
		return fmt.Errorf("netsim probe: pattern check failed on %d frames", bad)
	}
	return nil
}

// probeMachine times Machine.Snapshot on a lightweight machine warmed at
// the saturated rate.
func probeMachine(e *env, res *result) error {
	parent := e.tr.begin(e.root, "probe:machine")
	defer e.tr.end(parent)
	params := guest.DefaultParams(saturatedRate)
	m := machine.NewStreamingSeeded(params.BlockBytes, netsim.NewReceiver(), guest.KernelBase, e.seed)
	defer m.Release()
	entry, err := guest.Prepare(m, params)
	if err != nil {
		return err
	}
	if err := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight}).Launch(entry); err != nil {
		return err
	}
	// Ten pacing ticks: past boot, with the disk pipeline and the NIC
	// ring in flight.
	m.Run(10 * isa.ClockHz / 100)
	var snapMs []float64
	for rep := 0; rep < probeReps; rep++ {
		sp := e.tr.begin(parent, "machine.Snapshot")
		t0 := time.Now()
		snap := m.Snapshot()
		snapMs = append(snapMs, float64(time.Since(t0).Nanoseconds())/1e6)
		e.tr.end(sp)
		if snap.Clock != m.Clock() {
			return fmt.Errorf("machine probe: snapshot at clock %d, machine at %d", snap.Clock, m.Clock())
		}
	}
	res.layer["machine.snapshot_ms"] = median(snapMs)
	return nil
}

// probeRestore times Machine.Restore of a keyframe decoded from a
// recorded trace into a machine built from the trace's configuration.
func probeRestore(e *env, res *result, parent int, meta replay.TraceMeta, cp *replay.Checkpoint) error {
	m := machine.NewStreamingSeeded(meta.Params.BlockBytes, netsim.NewReceiver(), guest.KernelBase, meta.Seed)
	defer m.Release()
	var restoreMs []float64
	for rep := 0; rep < probeReps; rep++ {
		sp := e.tr.begin(parent, "machine.Restore")
		t0 := time.Now()
		m.Restore(cp.Machine)
		restoreMs = append(restoreMs, float64(time.Since(t0).Nanoseconds())/1e6)
		e.tr.end(sp)
	}
	if m.Clock() != cp.Cycle || m.CPU.Stat.Instructions != cp.Instr {
		return fmt.Errorf("restore probe: machine at clock %d instr %d, keyframe at %d %d",
			m.Clock(), m.CPU.Stat.Instructions, cp.Cycle, cp.Instr)
	}
	res.layer["machine.restore_ms"] = median(restoreMs)
	return nil
}

// probeDecode opens each trace through its seek index and decodes every
// event batch and snapshot segment once, timing the two kinds apart, and
// counts what the traces hold. The last keyframe of the last trace then
// feeds the restore probe.
func probeDecode(e *env, res *result, paths []string) error {
	parent := e.tr.begin(e.root, "probe:replay")
	defer e.tr.end(parent)
	var evBytes, cpBytes, evNs, cpNs, size int64
	var segs, keyframes, deltas, events int
	var meta replay.TraceMeta
	var key *replay.Checkpoint
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		sr, err := replay.NewSegmentReader(f, fi.Size())
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		size += fi.Size()
		meta, key = sr.Meta(), nil
		for i, si := range sr.Segments() {
			segs++
			var err error
			t0 := time.Now()
			switch {
			case si.IsEvents():
				sp := e.tr.begin(parent, "replay.SegmentReader.DecodeEvents")
				_, err = sr.DecodeEvents(i)
				e.tr.end(sp)
				evNs += time.Since(t0).Nanoseconds()
				evBytes += si.Bytes
				events += si.Events
			case si.IsSnapshot():
				sp := e.tr.begin(parent, "replay.SegmentReader.DecodeCheckpoint")
				var cp *replay.Checkpoint
				cp, err = sr.DecodeCheckpoint(i)
				e.tr.end(sp)
				cpNs += time.Since(t0).Nanoseconds()
				cpBytes += si.Bytes
				if si.KindName() == "delta" {
					deltas++
				} else {
					keyframes++
					key = cp
				}
			}
			if err != nil {
				return fmt.Errorf("%s: segment %d: %w", path, i, err)
			}
		}
	}
	l := res.layer
	l["replay.trace_mb"] = float64(size) / 1e6
	l["replay.segments"] = float64(segs)
	l["replay.keyframes"] = float64(keyframes)
	l["replay.deltas"] = float64(deltas)
	l["replay.events"] = float64(events)
	l["replay.decode_events_mb_per_s"] = float64(evBytes) / 1e6 / (float64(evNs) / 1e9)
	l["replay.decode_ckpt_mb_per_s"] = float64(cpBytes) / 1e6 / (float64(cpNs) / 1e9)
	if key == nil {
		return fmt.Errorf("%s: no keyframe to restore", paths[len(paths)-1])
	}
	return probeRestore(e, res, parent, meta, key)
}
