// Command benchjson times the repository's engineering benchmarks and
// emits a machine-readable JSON artifact (BENCH_<date>.json by default),
// so the performance trajectory of the hot paths is recorded in the repo
// rather than in someone's scrollback.
//
// Usage:
//
//	go run ./cmd/benchjson                 # ~1 s per benchmark, writes BENCH_<date>.json
//	go run ./cmd/benchjson -out -          # JSON to stdout
//	go run ./cmd/benchjson -note "seed"    # annotate the artifact
//	go run ./cmd/benchjson -compare BENCH_x.json -tolerance 15
//	                                       # regression gate: exit 1 when a
//	                                       # gated benchmark's ns/op regressed
//	                                       # more than 15% vs the baseline
//
// benchjson is only a driver: every benchmark it records is a
// func(*testing.B) in internal/benchdef, the same function bench_test.go
// registers for `go test -bench`, timed here through testing.Benchmark.
// Metric keys in the artifact are the units the bodies report (e.g.
// guest_instr/s, ns/trap). A benchmark whose body fails (b.Fatal) makes
// benchjson exit non-zero, naming it. Paper-figure benchmarks stay in
// `go test -bench`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"lvmm/internal/benchdef"
)

// Result is one benchmark measurement.
type Result struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the JSON document benchjson emits.
type Artifact struct {
	Date       string   `json:"date"`
	Note       string   `json:"note,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchmark is one artifact entry: its name and the shared body that
// measures it.
type benchmark struct {
	name string
	body func(*testing.B)
}

// benchmarks is what the artifact carries, in order. InterpreterSlowPath
// rides along so one artifact holds both sides of the predecoded-engine
// comparison.
var benchmarks = []benchmark{
	{"Interpreter", benchdef.Interpreter},
	{"InterpreterSlowPath", benchdef.InterpreterSlowPath},
	{"TrapRoundTrip", benchdef.TrapRoundTrip},
	{"TrapRoundTripBurst", benchdef.TrapRoundTripBurst},
	{"BurstReentry", benchdef.BurstReentry},
	{"RecordStream", benchdef.RecordStream},
	{"ArmedObserver", benchdef.ArmedObserver},
	{"ReplaySeek", benchdef.ReplaySeek},
	{"Fig31LightweightSaturated", benchdef.Fig31LightweightSaturated},
}

// run times each benchmark with testing.Benchmark (~1 s each, testing.B's
// own iteration growth, with a GC before every round). A body that fails
// leaves a result with N == 0; that is an error naming the benchmark, not
// a 0 ns/op entry that would sail through the regression gate.
func run(benches []benchmark) ([]Result, error) {
	var out []Result
	for _, bm := range benches {
		r := testing.Benchmark(bm.body)
		if r.N == 0 {
			return nil, fmt.Errorf("benchmark %s failed; `go test -run '^$' -bench .` shows its message", bm.name)
		}
		out = append(out, Result{
			Name:       bm.name,
			Iterations: r.N,
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
			Metrics:    r.Extra,
		})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// gatedBenchmarks are the hot-path benchmarks the -compare regression
// gate enforces: a CI run fails when any of these regresses in ns/op by
// more than the tolerance against the committed baseline artifact.
var gatedBenchmarks = []string{"Interpreter", "TrapRoundTrip", "TrapRoundTripBurst", "BurstReentry", "RecordStream", "ArmedObserver"}

// compareBaseline enforces the regression gate: every gated benchmark in
// the current run must be within tolerance percent of the baseline's
// ns/op, and every gated benchmark must actually be present in the
// current run — a gated benchmark the run no longer carries is a
// failure, not a skip, or deleting the benchmark would green the gate. A
// gated benchmark missing from the *baseline* (the gate list grew before
// the baseline artifact was refreshed) stays a warning-only skip.
// Returns the failures.
func compareBaseline(baseline Artifact, current []Result, tolerance float64) []string {
	base := map[string]Result{}
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	var failures []string
	for _, name := range gatedBenchmarks {
		b, okB := base[name]
		var c Result
		okC := false
		for _, r := range current {
			if r.Name == name {
				c, okC = r, true
			}
		}
		if !okC {
			failures = append(failures,
				fmt.Sprintf("%s is gated but missing from the current run", name))
			continue
		}
		if !okB || b.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "compare %-22s skipped: not in baseline (refresh the baseline artifact)\n", name)
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		// Progress goes to stderr so `-out -` keeps stdout valid JSON.
		fmt.Fprintf(os.Stderr, "compare %-22s baseline %12.1f ns/op, current %12.1f ns/op (%+.1f%%)\n",
			name, b.NsPerOp, c.NsPerOp, (ratio-1)*100)
		if ratio > 1+tolerance/100 {
			failures = append(failures,
				fmt.Sprintf("%s regressed %.1f%% (%.1f → %.1f ns/op, tolerance %.0f%%)",
					name, (ratio-1)*100, b.NsPerOp, c.NsPerOp, tolerance))
		}
	}
	return failures
}

func main() {
	out := flag.String("out", "", `output path; "-" for stdout (default BENCH_<date>.json)`)
	note := flag.String("note", "", "free-form annotation stored in the artifact")
	compare := flag.String("compare", "", "baseline BENCH_*.json to gate against (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 15, "allowed ns/op regression percentage for -compare")
	flag.Parse()
	// testing.Benchmark needs the testing package's flag state, or a body
	// calling b.Fatal dereferences nil. Registered after Parse, so the
	// test.* flags never become options of this command.
	testing.Init()

	results, err := run(benchmarks)
	if err != nil {
		fatal(err)
	}
	art := Artifact{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Note:       *note,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Benchmarks: results,
	}

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", art.Date)
	}
	if path == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", path, len(art.Benchmarks))
	}

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fatal(err)
		}
		var baseline Artifact
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *compare, err))
		}
		failures := compareBaseline(baseline, art.Benchmarks, *tolerance)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", f)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "regression gate passed against %s (tolerance %.0f%%)\n", *compare, *tolerance)
	}
}
