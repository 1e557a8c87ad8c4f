// Benchmarks regenerating the paper's evaluation (one benchmark per
// figure/series), the ablation sweeps, and the engineering benchmarks.
// Run with:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics: Mbps_achieved (the figure's x-axis value at
// saturation), cpu_load_pct (the y-axis), and the headline ratios. The
// engineering benchmarks' bodies live in internal/benchdef, which
// cmd/benchjson times too, so each is defined once.
package lvmm_test

import (
	"testing"

	"lvmm"
	"lvmm/internal/asm"
	"lvmm/internal/benchdef"
	"lvmm/internal/experiment"
	"lvmm/internal/guest"
	"lvmm/internal/perfmodel"
)

// BenchmarkFig31 regenerates the three series of Figure 3.1, one
// sub-benchmark per platform per representative offered rate.
func BenchmarkFig31(b *testing.B) {
	type pt struct {
		name string
		pf   experiment.Platform
		rate float64
	}
	points := []pt{
		{"RealHardware/50Mbps", experiment.BareMetal, 50},
		{"RealHardware/200Mbps", experiment.BareMetal, 200},
		{"RealHardware/660Mbps", experiment.BareMetal, 660},
		{"LightweightVMM/50Mbps", experiment.LightweightVMM, 50},
		{"LightweightVMM/150Mbps", experiment.LightweightVMM, 150},
		{"LightweightVMM/saturated", experiment.LightweightVMM, 700},
		{"HostedVMM/25Mbps", experiment.HostedVMM, 25},
		{"HostedVMM/saturated", experiment.HostedVMM, 700},
	}
	for _, p := range points {
		b.Run(p.name, func(b *testing.B) {
			benchdef.Point(b, p.pf, p.rate, experiment.Options{})
		})
	}
}

// BenchmarkHeadlineRatios reproduces the paper's two headline numbers
// (5.4× the conventional VMM; 26% of real hardware) as reported metrics.
func BenchmarkHeadlineRatios(b *testing.B) {
	var s experiment.Summary
	for i := 0; i < b.N; i++ {
		fig := experiment.RunFig31(experiment.Options{
			Rates:         []float64{700},
			DurationTicks: benchdef.Ticks,
		})
		s = fig.Summarize()
	}
	b.ReportMetric(s.LightweightOverHosted, "x_vs_hostedVMM(paper=5.4)")
	b.ReportMetric(s.LightweightOverBare*100, "pct_of_bare(paper=26)")
	b.ReportMetric(s.BareMax, "bare_max_Mbps")
	b.ReportMetric(s.LightweightMax, "lw_max_Mbps")
	b.ReportMetric(s.HostedMax, "hosted_max_Mbps")
}

// BenchmarkAblationCoalesce measures lightweight-VMM saturation against
// NIC interrupt coalescing (design-choice ablation).
func BenchmarkAblationCoalesce(b *testing.B) {
	for _, f := range []uint32{1, 4, 16} {
		b.Run(coalesceName(f), func(b *testing.B) {
			benchdef.Point(b, experiment.LightweightVMM, 700,
				experiment.Options{Coalesce: f})
		})
	}
}

func coalesceName(f uint32) string {
	switch f {
	case 1:
		return "perFrame"
	case 4:
		return "every4"
	default:
		return "every16"
	}
}

// BenchmarkAblationSwitchCost sweeps the lightweight world-switch price.
func BenchmarkAblationSwitchCost(b *testing.B) {
	for _, s := range []struct {
		name  string
		scale float64
	}{{"half", 0.5}, {"nominal", 1}, {"double", 2}, {"quadruple", 4}} {
		b.Run(s.name, func(b *testing.B) {
			c := perfmodel.Lightweight()
			c.WorldSwitchIn = uint64(float64(c.WorldSwitchIn) * s.scale)
			c.WorldSwitchOut = uint64(float64(c.WorldSwitchOut) * s.scale)
			benchdef.Point(b, experiment.LightweightVMM, 700,
				experiment.Options{LightweightCosts: &c})
		})
	}
}

// BenchmarkAblationSegmentSize sweeps the UDP payload size.
func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, sz := range []uint32{256, 512, 1024} {
		b.Run(segName(sz), func(b *testing.B) {
			benchdef.Point(b, experiment.LightweightVMM, 700,
				experiment.Options{SegmentBytes: sz})
		})
	}
}

func segName(sz uint32) string {
	switch sz {
	case 256:
		return "256B"
	case 512:
		return "512B"
	default:
		return "1024B"
	}
}

// BenchmarkAblationChecksumOffload compares software vs offloaded UDP
// checksums on bare metal (the guest-side cost the hosted VMM's feature-
// poor virtual NIC forces).
func BenchmarkAblationChecksumOffload(b *testing.B) {
	run := func(b *testing.B, offload bool) {
		var load float64
		for i := 0; i < b.N; i++ {
			w := lvmm.WorkloadDefaults(200)
			w.Seconds = 0.4
			w.CsumOffload = offload
			t, err := lvmm.NewStreamingTarget(lvmm.BareMetal, w)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := t.Run()
			if err != nil {
				b.Fatal(err)
			}
			if !stats.Clean {
				b.Fatal(stats.ValidateErr)
			}
			load = stats.CPULoad
		}
		b.ReportMetric(load*100, "cpu_load_pct")
	}
	b.Run("offloaded", func(b *testing.B) { run(b, true) })
	b.Run("software", func(b *testing.B) { run(b, false) })
}

// The engineering benchmarks (host-side hot-path numbers, not paper
// figures); see internal/benchdef for what each measures.

func BenchmarkInterpreter(b *testing.B)         { benchdef.Interpreter(b) }
func BenchmarkInterpreterSlowPath(b *testing.B) { benchdef.InterpreterSlowPath(b) }
func BenchmarkTrapRoundTrip(b *testing.B)       { benchdef.TrapRoundTrip(b) }
func BenchmarkTrapRoundTripBurst(b *testing.B)  { benchdef.TrapRoundTripBurst(b) }
func BenchmarkBurstReentry(b *testing.B)        { benchdef.BurstReentry(b) }
func BenchmarkReplaySeek(b *testing.B)          { benchdef.ReplaySeek(b) }

// BenchmarkArmedObserver runs the armed variant next to its unarmed
// baseline: both must stay on the predecoded burst engine, so their ns/op
// agree within the noise floor (≤10%).
func BenchmarkArmedObserver(b *testing.B) {
	b.Run("unarmed", benchdef.UnarmedObserver)
	b.Run("armed", benchdef.ArmedObserver)
}

// BenchmarkAssembler measures kernel assembly speed.
func BenchmarkAssembler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(guest.StreamKernelSource); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordStream(b *testing.B) { benchdef.RecordStream(b) }
