package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lvmm/internal/farm"
	"lvmm/internal/fleet"
)

// A sweep recorded with a relative -record directory and its results
// written into a subdirectory must ingest and query from the results
// file alone: each trace path names the trace from the file's directory.
func TestRelativeRecordDirIngests(t *testing.T) {
	t.Chdir(t.TempDir())
	var stdout, stderr bytes.Buffer
	args := []string{"-fig31", "-ticks", "10", "-rates", "100", "-j", "2", "-table=false",
		"-record", "farm/traces", "-out", "farm/results.json"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("hxfleet exited %d: %s", code, stderr.String())
	}

	raw, err := os.ReadFile("farm/results.json")
	if err != nil {
		t.Fatal(err)
	}
	var results []fleet.Result
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.TracePath == "" {
			t.Fatalf("%s: no trace path", r.Scenario.Name)
		}
		if _, err := os.Stat(filepath.Join("farm", r.TracePath)); err != nil {
			t.Errorf("%s: trace path %q is not relative to the results file: %v",
				r.Scenario.Name, r.TracePath, err)
		}
	}

	s, err := farm.Open("store")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.IngestFile("rel", "farm/results.json")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := farm.ParsePredicate("frames>=1")
	if err != nil {
		t.Fatal(err)
	}
	qr, err := s.Query(context.Background(), pred, farm.QueryOptions{Jobs: 2, Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || qr.Scanned != len(runs) || len(qr.Matches) != len(runs) {
		t.Fatalf("ingested %d runs; query scanned %d, matched %d", len(runs), qr.Scanned, len(qr.Matches))
	}
}
