package main

import (
	"testing"

	"dista/internal/core/tracker"
)

// small returns w cut down to n timed ops.
func small(w *workload, n int) *workload {
	c := *w
	c.ops = n
	return &c
}

func TestWorkloadsPassOracle(t *testing.T) {
	for _, w := range workloads {
		for _, p := range []*probe{nil, newProbe()} {
			r, err := runRound(small(w, 60), tracker.ModeDista, p, 7, 0)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if n := r.failed; n != 0 {
				t.Errorf("%s (traced %v): %d of %d ops failed the oracle", w.name, p != nil, n, r.ops)
			}
		}
	}
}

// TestPhosphorNegativeControl proves the oracle can fail: in Phosphor
// mode labels do not cross the network, so ops must be rejected.
func TestPhosphorNegativeControl(t *testing.T) {
	for _, w := range workloads {
		r, err := runRound(small(w, 60), tracker.ModePhosphor, nil, 7, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed == 0 {
			t.Errorf("%s: Phosphor mode passed every op; the oracle does not check labels", w.name)
		}
	}
}

func TestOpScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, b := mixSpec(3, 1, 500, 2), mixSpec(3, 1, 500, 2)
	if a != b {
		t.Fatalf("same seed, different op: %+v vs %+v", a, b)
	}
	// Every session sees the whole mix: path and density vary per op,
	// not per session index.
	for s := 0; s < 2; s++ {
		seen := map[[2]int]bool{}
		for i := 1000 + s; i < 3000; i += 2 {
			op := mixSpec(3, 0, i, 2)
			seen[[2]int{op.path, op.dens}] = true
		}
		if len(seen) != 8 {
			t.Errorf("session %d saw %d of 8 path/density pairs", s, len(seen))
		}
	}
}
