// Command perfbench is lvmm's benchmark: one of three workloads run from
// one process through the public functions of each layer, reporting the
// end-to-end metrics a user waits for or, with -trace 1, the per-layer
// numbers behind them. BENCHMARK.json at the repository root names every
// workload and metric; README.md beside this file maps each per-layer
// metric to the end-to-end metric it should move.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload fig31 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line before
// it records the host (CPU model, nproc, GOMAXPROCS, Go version) and the
// workload's named detail metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// workloads maps each BENCHMARK.json workload name to the function that
// runs it.
var workloads = map[string]func(*env) (*result, error){
	"fig31":        runFig31,
	"record-query": runRecordQuery,
	"timetravel":   runTimeTravel,
}

// Each workload times its set-up setupBefore times before its timed
// operations and setupAfter times after them; setup_s reports the median
// of all. The host's speed drifts over a run, so set-ups at both ends
// sample it as the timed operations do.
const (
	setupBefore = 4
	setupAfter  = 3
)

// minOps keeps at least ten samples beyond each workload's p90.
const minOps = 100

// env is what a workload function gets: its inputs, its budget, and the
// tracer (nil when tracing is off).
type env struct {
	seed    uint64
	seconds float64
	jobs    int
	tmp     string // absolute scratch directory, removed at exit
	golden  *golden
	tr      *tracer
	root    int // the workload span
}

// result is what a workload measured. The generic end-to-end metrics are
// filled by every workload; layer holds the per-layer metrics it could
// measure (the rest report zero).
type result struct {
	attempted int
	failed    int
	failures  []string

	setupS []float64
	// rates holds simulated seconds per host second, one value per
	// sweep pass, recorded sweep or verified replay; the median resists
	// a pass slowed by a neighbour on the host.
	rates []float64
	opsMs []float64

	layer map[string]float64
}

func newResult() *result { return &result{layer: map[string]float64{}} }

// check counts one attempted operation, and a failure when err != nil.
// Failures never abort the run.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// e2e derives the generic end-to-end metrics.
func (r *result) e2e() map[string]float64 {
	return map[string]float64{
		"setup_s":          median(r.setupS),
		"sim_s_per_host_s": median(r.rates),
		"op_p50_ms":        quantile(r.opsMs, 0.5),
		"op_p90_ms":        quantile(r.opsMs, 0.9),
		"peak_rss_mb":      peakRSSMB(),
	}
}

// safely runs fn and turns a panic into an error, so one broken
// operation is counted as failed instead of aborting the run.
func safely(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return fn()
}

// timeSetup runs a workload's set-up reps times, numbering the reps from
// first and recording each duration, and returns the last one's state;
// earlier states are closed.
func timeSetup[T any](res *result, first, reps int, setup func(rep int) (T, error), closeFn func(T)) (T, error) {
	var st T
	for rep := first; rep < first+reps; rep++ {
		if rep > first && closeFn != nil {
			closeFn(st)
		}
		start := time.Now()
		var err error
		st, err = setup(rep)
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	// Start what follows from a collected heap, so when the collector
	// runs does not depend on set-up garbage.
	runtime.GC()
	return st, nil
}

// retimeSetup times a workload's set-up setupAfter more times once its
// timed operations are done, and closes every state it made.
func retimeSetup[T any](res *result, setup func(rep int) (T, error), closeFn func(T)) error {
	st, err := timeSetup(res, setupBefore, setupAfter, setup, closeFn)
	if closeFn != nil {
		closeFn(st)
	}
	return err
}

// benchSpec is the part of BENCHMARK.json the program reports against.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run (fig31, record-query, timetravel)")
	seed := flag.Uint64("seed", 1, "input seed: volume contents and seek positions")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	regen := flag.Bool("regen-golden", false, "rewrite perfbench/golden.json from the current program and exit")
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	if *regen {
		if err := regenGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	buildDir := os.Getenv("BENCH_BUILD_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	if buildDir, err = filepath.Abs(buildDir); err == nil {
		err = os.MkdirAll(buildDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: *seed, seconds: *seconds, jobs: nproc, tmp: tmp, golden: g}
	var res *result
	if *traceFlag == 0 {
		if res, err = drive(e); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	} else {
		var tr *tracer
		if res, tr, err = tracedRun(e, drive, *workload, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		self := tr.selfSeconds()
		total := 0.0
		for _, s := range self {
			total += s
		}
		for _, m := range spec.PerLayer {
			if layer, ok := strings.CutPrefix(m.Name, "self_pct."); ok {
				res.layer[m.Name] = self[layer] / total * 100
			}
		}
		spanDir := filepath.Join(buildDir, "spans")
		if err = os.MkdirAll(spanDir, 0o755); err == nil {
			err = tr.write(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", *workload, *seed)))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}

	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	names, metrics := spec.EndToEnd, res.e2e()
	if *traceFlag != 0 {
		names, metrics = spec.PerLayer, res.layer
	}
	out := map[string]metricOut{}
	for _, m := range names {
		out[m.Name] = metricOut{Value: metrics[m.Name], Unit: m.Unit}
	}
	hostLine, _ := json.Marshal(map[string]any{
		"host":     hostInfo(nproc),
		"workload": *workload,
		"seed":     *seed,
		"detail":   res.layer,
	})
	fmt.Println(string(hostLine))
	last, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}

// tracedRun splits the budget into an untraced third, a traced third and
// a second untraced third. The traced run supplies the per-layer metrics;
// its end-to-end metrics against the mean of the untraced ones give the
// tracing overhead, with warm-up and drift cancelling to first order.
func tracedRun(e *env, drive func(*env) (*result, error), workload string, seconds float64) (*result, *tracer, error) {
	e.seconds = seconds / 3
	plain0, err := drive(e)
	if err != nil {
		return nil, nil, err
	}
	base0 := plain0.e2e()
	tr := newTracer()
	e.tr = tr
	e.root = tr.begin(-1, "workload:"+workload)
	res, err := drive(e)
	tr.end(e.root)
	e.tr, e.root = nil, 0
	if err != nil {
		return nil, nil, err
	}
	traced := res.e2e()
	plain1, err := drive(e)
	if err != nil {
		return nil, nil, err
	}
	base1 := plain1.e2e()
	for k, v := range traced {
		mean := (base0[k] + base1[k]) / 2
		res.layer["trace.overhead_pct."+k] = (v - mean) / mean * 100
	}
	// Resident memory only grows, so its high-water mark cannot tell the
	// three runs apart; what tracing adds to it is the spans it keeps.
	spanMB := float64(len(tr.spans)) * float64(unsafe.Sizeof(span{})) / 1e6
	res.layer["trace.overhead_pct.peak_rss_mb"] = spanMB / traced["peak_rss_mb"] * 100
	res.layer["trace.spans"] = float64(len(tr.spans))
	for _, p := range []*result{plain0, plain1} {
		res.attempted += p.attempted
		res.failed += p.failed
		res.failures = append(res.failures, p.failures...)
	}
	return res, tr, nil
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// hostInfo records what the numbers were measured on.
func hostInfo(nproc int) map[string]any {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation between order
// statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
