package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lvmm"
	"lvmm/internal/fleet"
	"lvmm/internal/isa"
	"lvmm/internal/replay"
)

// The debug session's trace: 0.5 s of the lightweight platform at
// 200 Mb/s with a snapshot every 10 M cycles (about 8 ms), opened with a
// decoded-segment budget far below the trace's size so seeks fault
// segments back in.
const (
	timeTravelTicks    = 50
	timeTravelRate     = 200
	timeTravelSnap     = 10_000_000
	timeTravelLRUBytes = 1 << 20
)

// seeksPerBlock is how many random seeks run between two verified
// replays to the end.
const seeksPerBlock = 25

func timeTravelScenario(seed uint64, path string) fleet.Scenario {
	sc := fleet.Scenario{
		Platform:           fleet.Lightweight,
		RateMbps:           timeTravelRate,
		DurationTicks:      timeTravelTicks,
		Seed:               seed,
		Record:             path,
		RecordSnapInterval: timeTravelSnap,
	}
	sc.Name = fleet.ScenarioName(sc)
	return sc
}

type session struct {
	path   string
	file   *os.File
	lt     *replay.LazyTrace
	rt     *lvmm.ReplayTarget
	rec    fleet.Result
	openS  float64
	cpInst []uint64 // checkpoint positions, ascending
}

// close releases the replay machine to the RAM pool for the next
// set-up and deletes the trace.
func (s *session) close() {
	if s == nil {
		return
	}
	if s.rt != nil {
		s.rt.Release()
	}
	if s.file != nil {
		s.file.Close()
	}
	os.Remove(s.path)
}

// runTimeTravel records one long trace, opens it lazily under a small
// LRU budget and drives a debug session over it: random seeks, each
// block followed by a verified replay from the start to the end.
func runTimeTravel(e *env) (*result, error) {
	res := newResult()
	setup := func(rep int) (*session, error) {
		loadKernel(e)
		path, err := filepath.Abs(filepath.Join(e.tmp, fmt.Sprintf("timetravel-%d.trc", rep)))
		if err != nil {
			return nil, err
		}
		s := &session{path: path}
		sp := e.tr.begin(e.root, "fleet.RunOne")
		s.rec = fleet.RunOne(context.Background(), timeTravelScenario(e.seed, path))
		e.tr.end(sp)
		if err := resultErr(s.rec); err != nil {
			return nil, err
		}
		if err := e.golden.expect(timeTravelKey, simFromResult(s.rec)); err != nil {
			return nil, err
		}
		if s.file, err = os.Open(path); err != nil {
			return s, err
		}
		fi, err := s.file.Stat()
		if err != nil {
			return s, err
		}
		t0 := time.Now()
		sp = e.tr.begin(e.root, "replay.NewLazyTrace")
		s.lt, err = replay.NewLazyTrace(s.file, fi.Size(), timeTravelLRUBytes)
		e.tr.end(sp)
		if err != nil {
			return s, err
		}
		sp = e.tr.begin(e.root, "lvmm.ReplaySource")
		s.rt, err = lvmm.ReplaySource(s.lt)
		e.tr.end(sp)
		s.openS = time.Since(t0).Seconds()
		for i := 0; i < s.lt.NumCheckpoints(); i++ {
			s.cpInst = append(s.cpInst, s.lt.CheckpointMeta(i).Instr)
		}
		return s, err
	}
	s, err := timeSetup(res, 0, setupBefore, setup, (*session).close)
	defer s.close()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(e.seed, 0x7469_6d65_7472_6176))
	rp := s.rt.Replayer()
	startInstr := s.lt.StartInstr()
	_, endInstr, _, _ := s.lt.End()
	want := simFromResult(s.rec)
	length := endInstr - startInstr

	phase := e.tr.begin(e.root, "phase:session")
	var runS []float64
	var forwardInstr uint64
	var faults int64
	seeks := 0
	start := time.Now()
	for seeks == 0 || time.Since(start).Seconds() < e.seconds || seeks < minOps {
		// Each block visits every 1/seeksPerBlock stretch of the trace
		// once, in random order at a random point inside it, so the seek
		// mix is the same for every seed while the positions are not.
		for _, k := range rng.Perm(seeksPerBlock) {
			lo := startInstr + length*uint64(k)/seeksPerBlock
			hi := startInstr + length*uint64(k+1)/seeksPerBlock
			target := lo + rng.Uint64N(hi-lo)
			from := rp.Position()
			if target < from {
				from = s.cpInst[sort.Search(len(s.cpInst), func(j int) bool { return s.cpInst[j] > target })-1]
			}
			forwardInstr += target - from
			op := e.tr.begin(phase, "seek")
			f0 := s.lt.Faults()
			t0 := time.Now()
			err := safely(func() error {
				sp := e.tr.begin(op, "replay.Replayer.SeekInstr")
				defer e.tr.end(sp)
				return rp.SeekInstr(target)
			})
			d := time.Since(t0).Seconds()
			e.tr.end(op)
			faults += s.lt.Faults() - f0
			if err == nil && rp.Position() != target {
				err = fmt.Errorf("seek to instr %d landed at %d", target, rp.Position())
			}
			res.check(err)
			res.opsMs = append(res.opsMs, d*1e3)
			seeks++
		}

		op := e.tr.begin(phase, "replay")
		t0 := time.Now()
		err := safely(func() error {
			if err := rp.SeekInstr(startInstr); err != nil {
				return err
			}
			sp := e.tr.begin(op, "lvmm.ReplayTarget.Run")
			st, err := s.rt.Run()
			e.tr.end(sp)
			if err != nil {
				return err
			}
			got := simResult{Mbps: st.AchievedMbps, CPULoad: st.CPULoad, MonitorShare: st.MonitorShare,
				Frames: st.Segments, Clock: s.rt.Machine().Clock(), Traps: s.rt.Monitor().Stats.Traps}
			if got != want {
				return fmt.Errorf("replay: %w: got %+v, recorded %+v", errMismatch, got, want)
			}
			return nil
		})
		d := time.Since(t0).Seconds()
		e.tr.end(op)
		res.check(err)
		runS = append(runS, d)
		res.rates = append(res.rates, float64(s.rec.Clock)/isa.ClockHz/d)
	}
	e.tr.end(phase)
	if err := retimeSetup(res, setup, (*session).close); err != nil {
		return nil, err
	}

	l := res.layer
	l["seek_p50_ms"] = quantile(res.opsMs, 0.5)
	l["seek_p90_ms"] = quantile(res.opsMs, 0.9)
	l["replay_sim_s_per_host_s"] = median(res.rates)
	l["replay.run_to_end_s"] = median(runS)
	l["replay.open_ms"] = s.openS * 1e3
	l["replay.seg_faults_per_seek"] = float64(faults) / float64(seeks)
	l["replay.max_resident_mb"] = float64(s.lt.MaxResidentBytes()) / 1e6
	l["replay.forward_minstr_per_seek"] = float64(forwardInstr) / float64(seeks) / 1e6
	if e.tr != nil {
		probeLayers(e, res, []string{s.path})
	}
	return res, nil
}
