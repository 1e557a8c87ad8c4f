package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"lvmm/internal/farm"
	"lvmm/internal/fleet"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
)

// recordRates are the low and saturated rates each platform records at.
var recordRates = []float64{50, saturatedRate}

// queryPredicate can only be decided at the end of a recording, so the
// scan decodes every event batch of every trace. An early-exit predicate
// such as frame_gap>=2ms would time little more than opening the traces.
const queryPredicate = "frames<100"

// checkPredicate matches a known part of the sweep: by the golden frame
// counts, the two hosted runs and no other. It runs once a cycle,
// untimed, so a scan that misses matches fails an operation.
const checkFrames = 2000

var checkPredicate = fmt.Sprintf("frames<%d", checkFrames)

// queriesPerCycle is how many times each recorded batch is queried; the
// query is the workload's timed operation, the recorded sweep its
// throughput.
const queriesPerCycle = 24

// batchTag labels every cycle's ingest. A cycle's results are identical
// to the previous cycle's, so re-ingesting them lands on the same
// content-addressed records and the store holds one batch throughout.
const batchTag = "sweep"

// recordScenarios is the hxfleet -record sweep: each platform at a low
// and a saturated rate, every trace under one absolute directory.
func recordScenarios(seed uint64, dir string) []fleet.Scenario {
	var scs []fleet.Scenario
	for _, pf := range platforms {
		for _, r := range recordRates {
			sc := fleet.Scenario{Platform: pf, RateMbps: r, DurationTicks: fig31Ticks, Seed: seed}
			sc.Name = fleet.ScenarioName(sc)
			sc.Record = filepath.Join(dir, fleet.SafeName(sc.Name)+".trc")
			scs = append(scs, sc)
		}
	}
	return scs
}

// resultErr reports a fleet result that did not run to a clean finish.
func resultErr(r fleet.Result) error {
	switch {
	case r.Err != "":
		return fmt.Errorf("%s: %s", r.Scenario.Name, r.Err)
	case r.StopReason != machine.StopGuestDone.String():
		return fmt.Errorf("%s: run ended with %s", r.Scenario.Name, r.StopReason)
	case r.Guest.ExitCode != 0:
		return fmt.Errorf("%s: guest exit %#x", r.Scenario.Name, r.Guest.ExitCode)
	case !r.Clean:
		return fmt.Errorf("%s: stream invalid: %s", r.Scenario.Name, r.NetError)
	}
	return nil
}

type recordQueryState struct {
	dir         string // absolute; holds traces/, results.json and farm/
	store       *farm.Store
	pred, check farm.Predicate
}

// runRecordQuery records a fleet sweep, ingests the fleet's result
// artifact into a farm store and queries the store, cycle after cycle.
func runRecordQuery(e *env) (*result, error) {
	res := newResult()
	setup := func(rep int) (*recordQueryState, error) {
		warmUp(e, res)
		dir, err := filepath.Abs(filepath.Join(e.tmp, fmt.Sprintf("record-query-%d", rep)))
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
			return nil, err
		}
		store, err := farm.Open(filepath.Join(dir, "farm"))
		if err != nil {
			return nil, err
		}
		st := &recordQueryState{dir: dir, store: store}
		if st.pred, err = farm.ParsePredicate(queryPredicate); err != nil {
			return nil, err
		}
		st.check, err = farm.ParsePredicate(checkPredicate)
		return st, err
	}
	closeFn := func(st *recordQueryState) {
		if st != nil {
			os.RemoveAll(st.dir)
		}
	}
	st, err := timeSetup(res, 0, setupBefore, setup, closeFn)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.dir)

	scs := recordScenarios(e.seed, filepath.Join(st.dir, "traces"))
	// The expected matches of both predicates, from the golden frame
	// counts; the check predicate must match some runs but not all.
	wantMatches := 0
	var wantCheck []string
	for _, sc := range scs {
		frames := e.golden.Points[pointKey(sc.Platform, sc.RateMbps)].Frames
		if frames < 100 {
			wantMatches++
		}
		if frames < checkFrames {
			wantCheck = append(wantCheck, sc.Name)
		}
	}
	if len(wantCheck) == 0 || len(wantCheck) == len(scs) {
		return nil, fmt.Errorf("check predicate %q matches %d of %d golden runs", checkPredicate, len(wantCheck), len(scs))
	}
	sort.Strings(wantCheck)

	phase := e.tr.begin(e.root, "phase:record-query")
	var ingestS, queryS, simS float64
	var traceBytes int64
	var scanned, matches, cycles int
	var last []fleet.Result
	start := time.Now()
	for cycles == 0 || time.Since(start).Seconds() < e.seconds || len(res.opsMs) < minOps {
		cycles++
		op := e.tr.begin(phase, "record")
		t0 := time.Now()
		sp := e.tr.begin(op, "fleet.Runner.Run")
		results := fleet.Runner{Jobs: e.jobs}.Run(context.Background(), scs)
		e.tr.end(sp)
		d := time.Since(t0).Seconds()
		e.tr.end(op)
		var sweepSim float64
		for _, r := range results {
			err := resultErr(r)
			if err == nil {
				err = e.golden.expect(pointKey(r.Scenario.Platform, r.Scenario.RateMbps), simFromResult(r))
			}
			res.check(err)
			sweepSim += float64(r.Clock) / isa.ClockHz
			traceBytes += r.TraceBytes
		}
		simS += sweepSim
		res.rates = append(res.rates, sweepSim/d)
		last = results

		op = e.tr.begin(phase, "ingest")
		t0 = time.Now()
		err := safely(func() error {
			artifact := filepath.Join(st.dir, "results.json")
			data, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(artifact, data, 0o644); err != nil {
				return err
			}
			sp := e.tr.begin(op, "farm.Store.IngestFile")
			runs, err := st.store.IngestFile(batchTag, artifact)
			e.tr.end(sp)
			if err == nil && len(runs) != len(scs) {
				err = fmt.Errorf("ingest stored %d runs, want %d", len(runs), len(scs))
			}
			return err
		})
		ingestS += time.Since(t0).Seconds()
		e.tr.end(op)
		res.check(err)

		op = e.tr.begin(phase, "check")
		err = safely(func() error {
			sp := e.tr.begin(op, "farm.Store.Query")
			rep, err := st.store.Query(context.Background(), st.check, farm.QueryOptions{Tag: batchTag, Jobs: e.jobs})
			e.tr.end(sp)
			if err != nil {
				return err
			}
			var got []string
			for _, m := range rep.Matches {
				got = append(got, m.Run.Result.Scenario.Name)
			}
			sort.Strings(got)
			if !slices.Equal(got, wantCheck) {
				return fmt.Errorf("query %q matched %v, want %v", checkPredicate, got, wantCheck)
			}
			matches = len(got)
			return nil
		})
		e.tr.end(op)
		res.check(err)

		// The queries start from a collected heap, so the recorded sweep's
		// garbage is not collected on their clock.
		runtime.GC()
		for q := 0; q < queriesPerCycle; q++ {
			op = e.tr.begin(phase, "query")
			t0 = time.Now()
			var rep *farm.QueryReport
			err := safely(func() error {
				sp := e.tr.begin(op, "farm.Store.Query")
				var err error
				rep, err = st.store.Query(context.Background(), st.pred, farm.QueryOptions{Tag: batchTag, Jobs: e.jobs})
				e.tr.end(sp)
				return err
			})
			d := time.Since(t0).Seconds()
			e.tr.end(op)
			if err == nil && (rep.Scanned != len(scs) || len(rep.Matches) != wantMatches) {
				err = fmt.Errorf("query %q: scanned %d matched %d, want %d and %d",
					queryPredicate, rep.Scanned, len(rep.Matches), len(scs), wantMatches)
			}
			res.check(err)
			res.opsMs = append(res.opsMs, d*1e3)
			queryS += d
			if rep != nil {
				scanned += rep.Scanned
			}
		}
	}
	e.tr.end(phase)
	if err := retimeSetup(res, setup, closeFn); err != nil {
		return nil, err
	}

	l := res.layer
	l["record_sim_s_per_host_s"] = median(res.rates)
	l["trace_mb_per_sim_s"] = float64(traceBytes) / 1e6 / simS
	l["query_runs_per_s"] = float64(scanned) / queryS
	l["farm.ingest_ms"] = ingestS / float64(cycles) * 1e3
	l["farm.query_ms"] = median(res.opsMs)
	l["farm.matches"] = float64(matches)
	if e.tr != nil {
		var paths []string
		for _, r := range last {
			if r.TracePath != "" {
				paths = append(paths, r.TracePath)
			}
		}
		probeLayers(e, res, paths)
	}
	return res, nil
}
