package replay

import (
	"bytes"
	"strings"
	"testing"
)

// TestNearestCheckpoint pins the seek planner's lookup over the lazy
// index's checkpoint stubs at every boundary.
func TestNearestCheckpoint(t *testing.T) {
	lt := openTrace(t, &Trace{Checkpoints: []Checkpoint{
		{Index: 0, Instr: 0},
		{Index: 1, Instr: 100},
		{Index: 2, Instr: 250},
	}})
	cases := []struct {
		pos  uint64
		want int
	}{
		{0, 0}, {50, 0}, {100, 1}, {249, 1}, {250, 2}, {1 << 40, 2},
	}
	for _, c := range cases {
		if got := lt.nearestCheckpoint(c.pos); got != c.want {
			t.Errorf("nearestCheckpoint(%d) = %d, want %d", c.pos, got, c.want)
		}
	}
	if lt.StartInstr() != 0 {
		t.Errorf("StartInstr = %d", lt.StartInstr())
	}
	// The trace has no event batches at all: the input scan must say so,
	// not index past the empty batch table.
	if idx, err := lt.NextInput(0); idx != -1 || err != nil {
		t.Errorf("NextInput on an event-free trace = %d, %v", idx, err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage accepted as a trace")
	}
	// Right magic, wrong version.
	bad := append([]byte(traceMagic), 0xFF, 0xFF)
	_, err := ReadTrace(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EvIRQ, EvTimer, EvFrame, EvInput} {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}
