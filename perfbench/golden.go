package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"lvmm/internal/fleet"
)

// golden.json holds the simulated results every run must reproduce
// exactly. They are functions of virtual time only, independent of the
// host, the worker count and the volume seed, so one file serves every
// seed. Regenerate it with -regen-golden after a deliberate change to
// the simulated machine, and say why in the commit.
//
//go:embed golden.json
var goldenJSON []byte

// simResult is the simulated outcome of one streaming run.
type simResult struct {
	Mbps         float64 `json:"mbps"`
	CPULoad      float64 `json:"cpu_load"`
	MonitorShare float64 `json:"monitor_share"`
	Frames       uint64  `json:"frames"`
	Clock        uint64  `json:"clock"`
	Traps        uint64  `json:"traps"`
}

type golden struct {
	// Points maps pointKey names ("hosted@700") to the fig31 results at
	// fig31Ticks, plus the timetravel recording under timeTravelKey.
	Points map[string]simResult `json:"points"`
}

var errMismatch = errors.New("simulated result differs from golden")

func pointKey(pf fleet.Platform, rate float64) string { return fmt.Sprintf("%s@%g", pf, rate) }

const timeTravelKey = "timetravel:lightweight@200"

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// expect compares a simulated result with its golden entry.
func (g *golden) expect(key string, got simResult) error {
	want, ok := g.Points[key]
	if !ok {
		return fmt.Errorf("%s: no golden result", key)
	}
	if got != want {
		return fmt.Errorf("%s: %w: got %+v, want %+v", key, errMismatch, got, want)
	}
	return nil
}

func simFromResult(r fleet.Result) simResult {
	s := simResult{
		Mbps:         r.AchievedMbps,
		CPULoad:      r.CPULoad,
		MonitorShare: r.MonitorShare,
		Frames:       r.Frames,
		Clock:        r.Clock,
	}
	if r.VMM != nil {
		s.Traps = r.VMM.Traps
	}
	return s
}

// regenGolden recomputes golden.json from the current program: one fig31
// sweep at seed 0 and the timetravel recording's unrecorded twin.
func regenGolden() error {
	g := golden{Points: map[string]simResult{}}
	e := &env{seed: 0, jobs: 1}
	for _, ps := range fig31Points() {
		if ps.slow {
			continue
		}
		out := runPoint(e, -1, ps)
		if out.err != nil {
			return out.err
		}
		g.Points[pointKey(ps.pf, ps.rate)] = out.sim
	}
	sc := timeTravelScenario(0, "")
	res := fleet.RunOne(context.Background(), sc)
	if err := resultErr(res); err != nil {
		return err
	}
	g.Points[timeTravelKey] = simFromResult(res)
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/golden.json", append(data, '\n'), 0o644)
}
