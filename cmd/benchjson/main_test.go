package main

import (
	"strings"
	"testing"
)

func artifactWith(names ...string) Artifact {
	var a Artifact
	for _, n := range names {
		a.Benchmarks = append(a.Benchmarks, Result{Name: n, NsPerOp: 100})
	}
	return a
}

func TestCompareAllPresentWithinTolerance(t *testing.T) {
	baseline := artifactWith(gatedBenchmarks...)
	current := artifactWith(gatedBenchmarks...).Benchmarks
	if failures := compareBaseline(baseline, current, 15); len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	baseline := artifactWith(gatedBenchmarks...)
	current := artifactWith(gatedBenchmarks...).Benchmarks
	current[0].NsPerOp = 200 // +100%
	failures := compareBaseline(baseline, current, 15)
	if len(failures) != 1 || !strings.Contains(failures[0], "regressed") {
		t.Fatalf("failures = %v, want one regression", failures)
	}
}

// TestCompareMissingFromCurrentFails is the regression test for the gate
// hole: a gated benchmark absent from the current run must fail the
// gate, or deleting the benchmark would green CI.
func TestCompareMissingFromCurrentFails(t *testing.T) {
	baseline := artifactWith(gatedBenchmarks...)
	current := artifactWith(gatedBenchmarks[1:]...).Benchmarks // drop the first
	failures := compareBaseline(baseline, current, 15)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly one", failures)
	}
	if !strings.Contains(failures[0], gatedBenchmarks[0]) ||
		!strings.Contains(failures[0], "missing from the current run") {
		t.Fatalf("failure %q does not name the missing gated benchmark", failures[0])
	}
}

// TestCompareMissingFromBaselineSkips: the gate list growing ahead of the
// committed baseline artifact is a skip, not a failure.
func TestCompareMissingFromBaselineSkips(t *testing.T) {
	baseline := artifactWith(gatedBenchmarks[1:]...)
	current := artifactWith(gatedBenchmarks...).Benchmarks
	if failures := compareBaseline(baseline, current, 15); len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestCompareZeroBaselineSkips(t *testing.T) {
	baseline := artifactWith(gatedBenchmarks...)
	baseline.Benchmarks[0].NsPerOp = 0
	current := artifactWith(gatedBenchmarks...).Benchmarks
	if failures := compareBaseline(baseline, current, 15); len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

// TestRunFailingBodyFails: a shared body that calls b.Fatal must fail the
// driver, naming the benchmark. testing.Benchmark reports such a body as
// N == 0 and 0 ns/op, which the gate would otherwise pass as a speedup.
func TestRunFailingBodyFails(t *testing.T) {
	broken := func(b *testing.B) { b.Fatal("sanity check failed") }
	results, err := run([]benchmark{{"Broken", broken}})
	if err == nil || !strings.Contains(err.Error(), "Broken") {
		t.Fatalf("run = %v, %v; want an error naming Broken", results, err)
	}
}
