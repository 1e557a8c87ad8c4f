// Command hxfleet runs a fleet of simulated machines concurrently: a
// scenario-matrix file (or the built-in Figure 3.1 matrix) is expanded
// into scenarios, dispatched onto a bounded worker pool, and the results
// are aggregated into a sweep table and/or emitted as JSON.
//
// Usage:
//
//	hxfleet [-j N] matrix.json            # run a scenario-matrix file
//	hxfleet -fig31 [-ticks N] [-rates ..] # built-in Figure 3.1 matrix
//	hxfleet -fig31 -out results.json      # also write per-run JSON
//	hxfleet -fig31 -out - -table=false    # JSON to stdout only
//	hxfleet -csv matrix.json              # flat CSV (one row per run)
//	hxfleet -record traces/ matrix.json   # stream a replayable trace per run
//
// In a results file written with -out, each relative trace path is
// relative to the results file's directory (the form hxfarm ingest
// reads), not to the working directory.
//
// A matrix file is a template scenario crossed with axis lists:
//
//	{
//	  "defaults": {"duration_ticks": 40},
//	  "platforms": ["bare", "lightweight", "hosted"],
//	  "rates": [100, 400, 700],
//	  "engines": ["auto", "slow"],
//	  "seeds": [0, 1]
//	}
//
// Every machine is private to its worker and clocked in virtual cycles,
// so the simulated metrics are bit-identical at any -j. Ctrl-C stops the
// running machines through the thread-safe stop request and reports the
// interrupted runs with stop_reason "stop requested".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"lvmm/internal/experiment"
	"lvmm/internal/fleet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is hxfleet on the given arguments and output streams; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hxfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("j", 0, "concurrent machines (0 = GOMAXPROCS)")
	fig31 := fs.Bool("fig31", false, "run the built-in Figure 3.1 matrix instead of a matrix file")
	ticks := fs.Uint("ticks", 50, "with -fig31: run length per point, in 10 ms ticks")
	rates := fs.String("rates", "", "with -fig31: comma-separated offered rates in Mb/s (default: standard sweep)")
	table := fs.Bool("table", true, "print the aggregated sweep table")
	csv := fs.Bool("csv", false, "print flat CSV (one row per run) instead of the table")
	out := fs.String("out", "", `write per-run results as JSON to this path ("-" for stdout)`)
	record := fs.String("record", "", "stream a v3 execution trace per scenario into this directory (replayable with hxreplay)")
	recordSync := fs.Bool("record-sync", false, "with -record: serialize trace segments on the run goroutine instead of the async pipeline (bytes are identical; debugging aid)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hxfleet:", err)
		return 1
	}

	var mx *fleet.Matrix
	switch {
	case *fig31:
		if fs.NArg() != 0 {
			return fail(fmt.Errorf("-fig31 and a matrix file are mutually exclusive"))
		}
		var err error
		if mx, err = fig31Matrix(*ticks, *rates); err != nil {
			return fail(err)
		}
	case fs.NArg() == 1:
		var err error
		mx, err = fleet.LoadMatrix(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
	default:
		fmt.Fprintln(stderr, "usage: hxfleet [flags] matrix.json | hxfleet -fig31 [flags]")
		fs.PrintDefaults()
		return 2
	}

	scs, err := mx.Expand()
	if err != nil {
		return fail(err)
	}
	if len(scs) == 0 {
		return fail(fmt.Errorf("matrix expands to no scenarios"))
	}
	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			return fail(err)
		}
		for i := range scs {
			if scs[i].Record == "" {
				scs[i].Record = filepath.Join(*record,
					fmt.Sprintf("%03d-%s.trc", i, fleet.SafeName(scs[i].Name)))
			}
			if *recordSync {
				scs[i].RecordSync = true
			}
		}
	}
	// Two workers streaming to one path would corrupt the file silently;
	// refuse authored collisions up front (Expand already vets the
	// matrix itself, this re-vets after -record fills in defaults).
	if err := fleet.CheckRecordCollisions(scs); err != nil {
		return fail(err)
	}

	// Ctrl-C cancels the sweep: running machines observe the stop
	// request within a poll interval, undispatched scenarios fail fast.
	// A second Ctrl-C force-exits — the escape hatch for a sweep whose
	// graceful drain is itself wedged (a worker stuck outside the
	// machine's stop-poll reach).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt)
	defer signal.Stop(sigs)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigs:
		case <-done:
			return
		}
		cancel()
		select {
		case <-sigs:
		case <-done:
			return
		}
		fmt.Fprintln(stderr, "hxfleet: second interrupt, forcing exit")
		os.Exit(130)
	}()

	results := fleet.Runner{Jobs: *jobs}.Run(ctx, scs)

	failures, timedOut := 0, 0
	for _, r := range results {
		if r.Err != "" {
			failures++
			fmt.Fprintf(stderr, "hxfleet: %s: %s\n", r.Scenario.Name, firstLine(r.Err))
		}
		if r.TimedOut {
			timedOut++
			fmt.Fprintf(stderr, "hxfleet: %s: watchdog timed out after %gs wall clock\n",
				r.Scenario.Name, r.Scenario.Watchdog)
		}
		if r.TracePath != "" {
			fmt.Fprintf(stderr, "hxfleet: %s: recorded %s (%d bytes)\n",
				r.Scenario.Name, r.TracePath, r.TraceBytes)
		}
	}

	switch {
	case *csv:
		fmt.Fprint(stdout, fleet.CSV(results))
	case *table:
		fmt.Fprint(stdout, fleet.Aggregate(results).Render())
	}

	if *out != "" {
		if *out != "-" {
			if err := relTracePaths(results, filepath.Dir(*out)); err != nil {
				return fail(err)
			}
		}
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return fail(err)
		}
		data = append(data, '\n')
		if *out == "-" {
			if _, err := stdout.Write(data); err != nil {
				return fail(err)
			}
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fail(err)
		}
	}

	if failures > 0 || timedOut > 0 {
		fmt.Fprintf(stderr, "hxfleet: %d of %d scenarios failed, %d timed out\n",
			failures, len(results), timedOut)
		return 1
	}
	if ctx.Err() != nil {
		// Interrupted runs carry truncated windows, not errors; the exit
		// code must still distinguish them from a completed sweep.
		fmt.Fprintln(stderr, "hxfleet: sweep interrupted; metrics above cover truncated windows")
		return 130
	}
	return 0
}

// relTracePaths rewrites each relative trace path, which names the
// trace from the working directory, to name it from outDir instead: a
// results file's trace paths are relative to the file's own directory,
// which is where farm.Store.IngestFile resolves them.
func relTracePaths(results []fleet.Result, outDir string) error {
	absOut, err := filepath.Abs(outDir)
	if err != nil {
		return err
	}
	for i := range results {
		p := results[i].TracePath
		if p == "" || filepath.IsAbs(p) {
			continue
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return err
		}
		if results[i].TracePath, err = filepath.Rel(absOut, abs); err != nil {
			return err
		}
	}
	return nil
}

// fig31Matrix is the paper's Figure 3.1 sweep as a fleet matrix.
func fig31Matrix(ticks uint, rates string) (*fleet.Matrix, error) {
	mx := &fleet.Matrix{
		Defaults:  fleet.Scenario{DurationTicks: uint32(ticks)},
		Platforms: []fleet.Platform{fleet.Bare, fleet.Lightweight, fleet.Hosted},
	}
	if rates == "" {
		mx.Rates = append(mx.Rates, experiment.StandardRates...)
		return mx, nil
	}
	for _, f := range strings.Split(rates, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", f, err)
		}
		mx.Rates = append(mx.Rates, v)
	}
	return mx, nil
}

// firstLine trims a multi-line error (a panic report carries its whole
// stack) to its first line for the per-run summary; the full text is
// still in the JSON output.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " [stack in JSON output]"
	}
	return s
}
