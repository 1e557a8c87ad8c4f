package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"lvmm/internal/experiment"
	"lvmm/internal/fleet"
	"lvmm/internal/guest"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/vmm"
)

// fig31Ticks is the sweep's run length per point: the experiment
// package's default (0.4 s of virtual time).
const fig31Ticks = 40

// saturatedRate is the sweep's top offered rate; every platform
// saturates below it.
const saturatedRate = 700

// The paper's headline ratios: the lightweight monitor moves 5.4× the
// hosted VMM's data and 26% of real hardware's.
const (
	paperLWOverHosted = 5.4
	paperLWOverBare   = 0.26
)

// pointSpec is one sweep point. slow marks a cross-engine twin: the same
// point pinned to the per-instruction interpreter.
type pointSpec struct {
	pf   fleet.Platform
	rate float64
	slow bool
}

// group names the per-layer metric suffix the point's numbers add to.
func (ps pointSpec) group() string {
	if ps.slow {
		return "slow_engine"
	}
	return string(ps.pf)
}

var platforms = []fleet.Platform{fleet.Bare, fleet.Lightweight, fleet.Hosted}

var groups = []string{"bare", "lightweight", "hosted", "slow_engine"}

// fig31Points lists the standard sweep in the experiment's order, then
// the hosted and lightweight saturated points again on the slow engine.
func fig31Points() []pointSpec {
	var pts []pointSpec
	for _, pf := range platforms {
		for _, r := range experiment.StandardRates {
			pts = append(pts, pointSpec{pf: pf, rate: r})
		}
	}
	return append(pts,
		pointSpec{pf: fleet.Hosted, rate: saturatedRate, slow: true},
		pointSpec{pf: fleet.Lightweight, rate: saturatedRate, slow: true})
}

// pointOut is what one point measured.
type pointOut struct {
	sim                   simResult
	instr, burstTicks     uint64
	chainHits, chainTries uint64
	payloadBytes          uint64
	setupS, runS, totalS  float64
	end                   time.Time
	err                   error
}

// runPoint builds one point from the layer constructors, runs it and
// reads its counters. Every layer call is a span under parent.
func runPoint(e *env, parent int, ps pointSpec) (out pointOut) {
	start := time.Now()
	op := e.tr.begin(parent, "point:"+pointKey(ps.pf, ps.rate))
	defer func() {
		e.tr.end(op)
		out.end = time.Now()
		out.totalS = out.end.Sub(start).Seconds()
	}()
	out.err = safely(func() error {
		params := guest.DefaultParams(ps.rate)
		params.DurationTicks = fig31Ticks
		if ps.pf == fleet.Hosted {
			// The hosted VMM's virtual NIC has neither checksum offload
			// nor interrupt coalescing, as in fleet.RunOne.
			params.CsumOffload = false
			params.Coalesce = 1
		}
		recv := netsim.NewReceiver()
		sp := e.tr.begin(op, "machine.NewStreamingSeeded")
		m := machine.NewStreamingSeeded(params.BlockBytes, recv, guest.KernelBase, e.seed)
		e.tr.end(sp)
		sp = e.tr.begin(op, "guest.Prepare")
		entry, err := guest.Prepare(m, params)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		var mon *vmm.VMM
		if ps.pf == fleet.Bare {
			m.CPU.Reset(entry)
		} else {
			cfg := vmm.Config{Mode: vmm.Lightweight}
			if ps.pf == fleet.Hosted {
				cfg.Mode = vmm.Hosted
			}
			sp = e.tr.begin(op, "vmm.Attach")
			mon = vmm.Attach(m, cfg)
			e.tr.end(sp)
			sp = e.tr.begin(op, "vmm.Launch")
			err = mon.Launch(entry)
			e.tr.end(sp)
			if err != nil {
				return err
			}
		}
		if ps.slow {
			m.CPU.ForceSlowEngine(true)
		}
		out.setupS = time.Since(start).Seconds()

		limit := uint64(params.DurationTicks+400) * isa.ClockHz / uint64(params.TickHz)
		runStart := time.Now()
		sp = e.tr.begin(op, "machine.Run")
		reason := m.Run(limit)
		e.tr.end(sp)
		out.runS = time.Since(runStart).Seconds()

		if reason != machine.StopGuestDone {
			return fmt.Errorf("%s: run ended with %v", pointKey(ps.pf, ps.rate), reason)
		}
		if r := guest.ReadResults(m); r.ExitCode != 0 {
			return fmt.Errorf("%s: guest exit %#x", pointKey(ps.pf, ps.rate), r.ExitCode)
		}
		if !recv.Clean() {
			return fmt.Errorf("%s: stream invalid: %s", pointKey(ps.pf, ps.rate), recv.LastError())
		}
		out.sim = simResult{
			Mbps:    recv.RateMbps(m.Clock()),
			CPULoad: m.CPULoad(),
			Frames:  recv.Frames,
			Clock:   m.Clock(),
		}
		if b := m.BusyCycles(); b > 0 {
			out.sim.MonitorShare = float64(m.MonitorCycles()) / float64(b)
		}
		if mon != nil {
			out.sim.Traps = mon.Stats.Traps
		}
		sb := m.CPU.SBStats()
		out.instr = m.CPU.Stat.Instructions
		out.burstTicks = m.CPU.BurstTicks()
		out.chainHits, out.chainTries = sb.ChainHits, sb.ChainHits+sb.ChainMisses
		out.payloadBytes = recv.PayloadBytes
		sp = e.tr.begin(op, "machine.Release")
		m.Release()
		e.tr.end(sp)
		return nil
	})
	return out
}

// groupSums accumulates one platform group's points over the run.
type groupSums struct {
	simS, hostS, setupS, runS float64
	points                    int
	instr, burstTicks         uint64
	chainHits, chainTries     uint64
	payloadBytes              uint64
	traps                     uint64
}

// runFig31 runs the sweep on a worker pool pass after pass until the
// time budget is spent, checking every point against the golden results
// and every slow twin against its auto-engine point.
func runFig31(e *env) (*result, error) {
	res := newResult()
	pts := fig31Points()
	setup := func(int) (struct{}, error) {
		warmUp(e, res)
		return struct{}{}, nil
	}
	if _, err := timeSetup(res, 0, setupBefore, setup, nil); err != nil {
		return nil, err
	}

	phase := e.tr.begin(e.root, "phase:sweep")
	sums := map[string]*groupSums{}
	for _, g := range groups {
		sums[g] = &groupSums{}
	}
	var runSlow, runAuto = map[fleet.Platform]float64{}, map[fleet.Platform]float64{}
	var wall, straggler float64
	var outs []pointOut
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start).Seconds() < e.seconds || len(res.opsMs) < minOps {
		outs = make([]pointOut, len(pts))
		passStart := time.Now()
		sp := e.tr.begin(phase, "fleet.Runner.ForEach")
		fleet.Runner{Jobs: e.jobs}.ForEach(context.Background(), len(pts), func(i int) {
			outs[i] = runPoint(e, sp, pts[i])
		})
		e.tr.end(sp)
		wall += time.Since(passStart).Seconds()
		passes++

		var passSim, passBusy float64
		auto := map[fleet.Platform]pointOut{}
		ends := make([]float64, 0, len(pts))
		for i, ps := range pts {
			o := outs[i]
			err := o.err
			if err == nil {
				err = e.golden.expect(pointKey(ps.pf, ps.rate), o.sim)
			}
			if err == nil && ps.slow {
				a := auto[ps.pf]
				if a.err != nil || a.sim != o.sim || a.instr != o.instr {
					err = fmt.Errorf("%s: slow-engine twin differs from its auto-engine point", pointKey(ps.pf, ps.rate))
				}
			}
			res.check(err)
			if !ps.slow && ps.rate == saturatedRate {
				auto[ps.pf] = o
			}
			res.opsMs = append(res.opsMs, o.totalS*1e3)
			passSim += float64(o.sim.Clock) / isa.ClockHz
			passBusy += o.totalS
			ends = append(ends, o.end.Sub(passStart).Seconds())
			s := sums[ps.group()]
			s.simS += float64(o.sim.Clock) / isa.ClockHz
			s.hostS += o.totalS
			s.setupS += o.setupS
			s.runS += o.runS
			s.points++
			s.instr += o.instr
			s.burstTicks += o.burstTicks
			s.chainHits += o.chainHits
			s.chainTries += o.chainTries
			s.payloadBytes += o.payloadBytes
			s.traps += o.sim.Traps
			if ps.rate == saturatedRate {
				if ps.slow {
					runSlow[ps.pf] += o.runS
				} else {
					runAuto[ps.pf] += o.runS
				}
			}
		}
		res.rates = append(res.rates, passSim/passBusy)
		sort.Float64s(ends)
		if j := min(e.jobs, len(ends)); j > 0 {
			straggler += ends[len(ends)-1] - ends[len(ends)-j]
		}
	}
	e.tr.end(phase)
	if err := retimeSetup(res, setup, nil); err != nil {
		return nil, err
	}

	l := res.layer
	n := float64(passes)
	busy := 0.0
	for _, g := range groups {
		s := sums[g]
		busy += s.hostS
		l["sim_s_per_host_s."+g] = s.simS / s.hostS
		l["machine.run_s."+g] = s.runS / n
		l["machine.setup_ms."+g] = s.setupS / float64(s.points) * 1e3
		l["cpu.instr."+g] = float64(s.instr) / n
		l["cpu.ns_per_instr."+g] = s.runS * 1e9 / float64(s.instr)
		l["cpu.sb_chain_hit_pct."+g] = float64(s.chainHits) / float64(max(s.chainTries, 1)) * 100
		l["cpu.burst_ticks."+g] = float64(s.burstTicks) / n
		l["vmm.traps."+g] = float64(s.traps) / n
		l["netsim.payload_mb."+g] = float64(s.payloadBytes) / n / 1e6
	}
	for _, pf := range []fleet.Platform{fleet.Hosted, fleet.Lightweight} {
		l["cpu.tier_speedup."+string(pf)] = runSlow[pf] / runAuto[pf]
	}
	l["fleet.busy_pct"] = busy / (wall * float64(e.jobs)) * 100
	l["fleet.straggler_s"] = straggler / n
	paperErr, err := paperErrPct(pts, outs)
	res.check(err)
	l["paper_err_pct"] = paperErr

	if e.tr != nil {
		probeLayers(e, res, nil)
		// Each payload byte costs netsim one disk fill, one receiver
		// pattern check and one checksum pass.
		nsPerByte := (l["netsim.fill_ns_per_kb"] + l["netsim.check_ns_per_kb"] + l["netsim.sum_ns_per_kb"]) / 1024
		for _, g := range groups {
			s := sums[g]
			l["netsim.est_share."+g] = float64(s.payloadBytes) * nsPerByte / (s.runS * 1e9) * 100
		}
	}
	return res, nil
}

// warmUp loads the guest kernel, which guest.Kernel assembles once per
// process, and runs each platform's saturated point once: the first
// points of a process fill the RAM pool and the caches, which is set-up,
// not sweep time. The points run one after another, so the set-up time
// does not depend on which pool worker happens to take the last one.
// They are checked like any other.
func warmUp(e *env, res *result) {
	loadKernel(e)
	sp := e.tr.begin(e.root, "warm-up")
	for _, pf := range platforms {
		ps := pointSpec{pf: pf, rate: saturatedRate}
		o := runPoint(e, sp, ps)
		err := o.err
		if err == nil {
			err = e.golden.expect(pointKey(ps.pf, ps.rate), o.sim)
		}
		res.check(err)
	}
	e.tr.end(sp)
}

// paperErrPct is the larger relative error of the reproduced headline
// ratios against the paper's, with the ratios computed as
// experiment.Fig31.Summarize computes them.
func paperErrPct(pts []pointSpec, outs []pointOut) (float64, error) {
	f := &experiment.Fig31{Points: map[experiment.Platform][]experiment.Point{}, Rates: experiment.StandardRates}
	for i, ps := range pts {
		if ps.slow {
			continue
		}
		pf := experiment.BareMetal
		switch ps.pf {
		case fleet.Lightweight:
			pf = experiment.LightweightVMM
		case fleet.Hosted:
			pf = experiment.HostedVMM
		}
		pt := experiment.Point{Platform: pf, OfferedMbps: ps.rate, AchievedMbps: outs[i].sim.Mbps}
		if outs[i].err != nil {
			pt.Error = outs[i].err.Error()
		}
		f.Points[pf] = append(f.Points[pf], pt)
	}
	s := f.Summarize()
	if s.LightweightOverHosted == 0 || s.LightweightOverBare == 0 {
		return 0, errors.New("fig31: headline ratios undefined (a platform sustained no traffic)")
	}
	return 100 * math.Max(
		math.Abs(s.LightweightOverHosted/paperLWOverHosted-1),
		math.Abs(s.LightweightOverBare/paperLWOverBare-1)), nil
}
