// Package benchdef defines the repository's engineering benchmarks once,
// as plain func(*testing.B) bodies. The root package's bench_test.go
// registers them for `go test -bench`, and cmd/benchjson times the same
// functions through testing.Benchmark for its JSON artifact and
// regression gate, so both run the same guest programs, the same sanity
// checks and report the same metrics under the same units.
//
// A body reports failure with b.Fatal; under testing.Benchmark that
// yields a result with N == 0, which cmd/benchjson treats as a failed
// benchmark.
package benchdef

import (
	"bytes"
	"io"
	"testing"

	"lvmm"
	"lvmm/internal/asm"
	"lvmm/internal/cpu"
	"lvmm/internal/experiment"
	"lvmm/internal/machine"
	"lvmm/internal/replay"
	"lvmm/internal/vmm"
)

// Ticks keeps each Figure 3.1 point short enough for benchmark runs while
// long enough to pass the disk-pipeline startup transient.
const Ticks = 40

// Point runs one Figure 3.1 operating point per op and reports the
// figure's axes: Mbps_achieved (x at saturation), cpu_load_pct (y) and
// the monitor's share of the load.
func Point(b *testing.B, pf experiment.Platform, rate float64, opts experiment.Options) {
	b.Helper()
	opts.DurationTicks = Ticks
	var last experiment.Point
	for i := 0; i < b.N; i++ {
		last = experiment.RunPoint(pf, opts, rate)
		if last.Error != "" {
			b.Fatalf("%v @ %.0f: %s", pf, rate, last.Error)
		}
	}
	b.ReportMetric(last.AchievedMbps, "Mbps_achieved")
	b.ReportMetric(last.CPULoad*100, "cpu_load_pct")
	b.ReportMetric(last.MonitorShare*100, "monitor_pct")
}

// Fig31LightweightSaturated is the lightweight-VMM saturation point of
// Figure 3.1, the macro benchmark the paper's headline numbers come from.
func Fig31LightweightSaturated(b *testing.B) {
	Point(b, experiment.LightweightVMM, 700, experiment.Options{})
}

// countLoop is the tight guest loop the Interpreter benchmarks time:
// countLoopInstrs retired instructions per run.
const countLoop = `
        .org 0x1000
        _start:
            li   r1, 0
            li   r2, 1000000
        loop:
            addi r1, r1, 1
            bne  r1, r2, loop
            hlt
    `

const countLoopInstrs = 2_000_001

// Interpreter measures raw simulated-CPU speed: guest instructions per
// host second of a tight loop, with the superblock tier's block, run and
// chain counters alongside.
func Interpreter(b *testing.B) { interpreter(b, false) }

// InterpreterSlowPath times the same loop with the CPU's force-slow knob
// set, which is timeline-neutral but disqualifies predecoded bursts
// (cpu.BurstSafe) and so forces the per-instruction slow path. The ratio
// to Interpreter is the predecoded engine's speedup.
func InterpreterSlowPath(b *testing.B) { interpreter(b, true) }

func interpreter(b *testing.B, forceSlow bool) {
	img := asm.MustAssemble(countLoop)
	var sb cpu.SBStats
	for i := 0; i < b.N; i++ {
		m := load(b, img)
		m.CPU.Reset(img.Entry)
		m.CPU.ForceSlowEngine(forceSlow)
		m.Run(20_000_000)
		if m.CPU.Regs[1] != 1000000 {
			b.Fatalf("loop did not finish: r1=%d", m.CPU.Regs[1])
		}
		s := m.CPU.SBStats()
		sb.Built += s.Built
		sb.Runs += s.Runs
		sb.ChainHits += s.ChainHits
		sb.ChainMisses += s.ChainMisses
	}
	b.ReportMetric(float64(countLoopInstrs*b.N)/b.Elapsed().Seconds(), "guest_instr/s")
	b.ReportMetric(float64(sb.Built)/float64(b.N), "sb_built/op")
	b.ReportMetric(float64(sb.Runs)/float64(b.N), "sb_runs/op")
	chainPct := 0.0
	if taken := sb.ChainHits + sb.ChainMisses; taken > 0 {
		chainPct = 100 * float64(sb.ChainHits) / float64(taken)
	}
	b.ReportMetric(chainPct, "sb_chain_hit_pct")
}

// cliLoop traps on every instruction but the branch when run deprivileged
// under the lightweight monitor, which emulates CLI and STI.
const cliLoop = `
        .org 0x1000
        _start:
        loop:
            cli
            sti
            b loop
    `

// TrapRoundTrip measures one guest→monitor→guest crossing (CLI
// emulation), the lightweight VMM's atomic unit, single-stepping the
// per-instruction engine.
func TrapRoundTrip(b *testing.B) {
	m, v := launchCLILoop(b)
	b.ResetTimer()
	start := v.Stats.Traps
	for i := 0; i < b.N; i++ {
		m.StepOne()
	}
	b.ReportMetric(float64(v.Stats.Traps-start)/float64(b.N), "traps/op")
}

// TrapRoundTripBurst measures the same crossing driven through
// machine.Run, where the fused one-crossing dispatch keeps the guest on
// the predecoded burst engine across monitor-handled traps. Each op is a
// fixed slice of virtual time; ns/trap is the host cost of one fused
// crossing.
func TrapRoundTripBurst(b *testing.B) {
	m, v := launchCLILoop(b)
	// ~20 crossings per op at the lightweight world-switch prices.
	const sliceCycles = 200_000
	b.ResetTimer()
	start := v.Stats.Traps
	for i := 0; i < b.N; i++ {
		m.Run(m.Clock() + sliceCycles)
	}
	traps := v.Stats.Traps - start
	b.ReportMetric(float64(traps)/float64(b.N), "traps/op")
	if traps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(traps), "ns/trap")
	}
}

func launchCLILoop(b *testing.B) (*machine.Machine, *vmm.VMM) {
	img := asm.MustAssemble(cliLoop)
	m := load(b, img)
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	if err := v.Launch(img.Entry); err != nil {
		b.Fatal(err)
	}
	return m, v
}

// BurstReentry measures the burst re-entry preamble: each op is one
// machine.Run call over a slice of virtual time short enough that the
// guest work inside it is negligible (the hot loop runs as one batched
// superblock), so ns/op tracks what it costs to get from the Run entry
// point back onto the predecoded engine: event-horizon computation,
// interrupt and halt checks, the burst preamble and the horizon exit.
func BurstReentry(b *testing.B) {
	img := asm.MustAssemble(`
        .org 0x1000
        _start:
        loop:
            addi r1, r1, 1
            b    loop
    `)
	m := load(b, img)
	m.CPU.Reset(img.Entry)
	const sliceCycles = 64
	b.ResetTimer()
	startInstr := m.CPU.Stat.Instructions
	for i := 0; i < b.N; i++ {
		m.Run(m.Clock() + sliceCycles)
	}
	b.ReportMetric(float64(m.CPU.Stat.Instructions-startInstr)/float64(b.N), "instr/op")
	b.ReportMetric(float64(m.CPU.SBStats().Runs)/float64(b.N), "sb_runs/op")
}

func load(b *testing.B, img *asm.Image) *machine.Machine {
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		b.Fatal(err)
	}
	return m
}

// streamTarget builds the standard 100 ms lightweight-VMM streaming run
// at rate Mbps.
func streamTarget(b *testing.B, rate float64) *lvmm.Target {
	w := lvmm.WorkloadDefaults(rate)
	w.Seconds = 0.1
	target, err := lvmm.NewStreamingTarget(lvmm.Lightweight, w)
	if err != nil {
		b.Fatal(err)
	}
	return target
}

// RecordStream measures the streaming recorder's overhead on the
// standard workload: one 100 ms lightweight-VMM run per op, trace
// segments (event batches, keyframes, delta snapshots) flushing to a
// discarding sink as the run proceeds. Compare against the Figure 3.1
// lightweight point to read the recording tax; trace_bytes tracks the
// on-disk cost of the v3 container.
func RecordStream(b *testing.B) {
	var stats replay.StreamStats
	for i := 0; i < b.N; i++ {
		target := streamTarget(b, 100)
		rec, err := target.RecordStream(io.Discard, lvmm.RecordOptions{SnapshotInterval: 20_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := target.Run(); err != nil {
			b.Fatal(err)
		}
		if stats, err = rec.FinishStream(); err != nil {
			b.Fatal(err)
		}
		// Recycle the machine's RAM: without it every op retires a 64 MB
		// slice to the GC and the measurement drifts with heap growth
		// instead of tracking the recorder.
		target.Release()
	}
	b.ReportMetric(float64(stats.BytesWritten), "trace_bytes")
	b.ReportMetric(float64(stats.Events), "events")
	b.ReportMetric(float64(stats.Segments), "segments")
	b.ReportMetric(float64(stats.Keyframes), "keyframes")
	b.ReportMetric(float64(stats.Deltas), "delta_snaps")
	b.ReportMetric(float64(stats.MaxPendingEvents), "max_pending_ev")
}

// ArmedObserver measures the page-granular arming guarantee on the
// Figure 3.1 workload: the standard lightweight streaming run with a
// hardware breakpoint planted on a page the kernel never executes. The
// guest must stay on the predecoded burst engine, so its ns/op sits at
// UnarmedObserver's; if arming ever knocks the guest back onto the
// per-instruction interpreter, the run slows several-fold, or fails
// outright when it never bursts.
func ArmedObserver(b *testing.B) { observer(b, true) }

// UnarmedObserver is ArmedObserver's baseline: the same run with no
// breakpoint armed.
func UnarmedObserver(b *testing.B) { observer(b, false) }

func observer(b *testing.B, armed bool) {
	var burst uint64
	var cpuLoad float64
	for i := 0; i < b.N; i++ {
		target := streamTarget(b, 100)
		c := target.Machine().CPU
		if armed {
			// A page the streaming kernel never fetches from.
			if err := c.SetHWBreak(0, 0xE0000, true); err != nil {
				b.Fatal(err)
			}
		}
		stats, err := target.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !stats.Clean {
			b.Fatalf("run corrupted the stream: %s", stats.ValidateErr)
		}
		if burst = c.BurstTicks(); burst == 0 {
			b.Fatal("run never burst: the guest fell off the predecoded engine")
		}
		cpuLoad = stats.CPULoad
		target.Release()
	}
	b.ReportMetric(float64(burst), "burst_ticks")
	b.ReportMetric(cpuLoad*100, "cpu_load_pct")
}

// ReplaySeek measures random time-travel seeks through the lazy v3
// reader: one streamed recording is opened through its seek index with a
// deliberately small LRU budget, and each op seeks the replayer to a
// pseudo-random instruction, restoring the nearest checkpoint (faulting
// its segment back in when evicted) and running forward from there.
// segfaults/op tracks cache pressure; max_resident_bytes is the cache's
// high-water mark, at most the budget plus one oversized snapshot, since
// the LRU pins the entry it just decoded.
func ReplaySeek(b *testing.B) {
	target := streamTarget(b, 200)
	var buf bytes.Buffer
	rec, err := target.RecordStream(&buf, lvmm.RecordOptions{SnapshotInterval: 10_000_000})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := target.Run(); err != nil {
		b.Fatal(err)
	}
	if _, err := rec.FinishStream(); err != nil {
		b.Fatal(err)
	}
	lt, err := replay.NewLazyTrace(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := lvmm.ReplaySource(lt)
	if err != nil {
		b.Fatal(err)
	}
	_, endInstr, _, _ := lt.End()
	rng := uint64(0x9e3779b97f4a7c15) // fixed seed: identical seek sequence every run
	b.ResetTimer()
	startFaults := lt.Faults()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		if err := rt.Replayer().SeekInstr(rng % endInstr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lt.Faults()-startFaults)/float64(b.N), "segfaults/op")
	b.ReportMetric(float64(lt.MaxResidentBytes()), "max_resident_bytes")
}
