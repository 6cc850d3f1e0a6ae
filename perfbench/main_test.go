package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"hybridpde/internal/core"
	"hybridpde/perfbench/check"
)

// TestMetricsMatchBenchmarkJSON keeps the metric lists the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json declares %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestRingSplitsShapes pins the fleet-sweep layout: the two grid shapes
// land on different backends of the gateway's ring.
func TestRingSplitsShapes(t *testing.T) {
	if err := ringSplitsShapes(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := quantile(v, 0.5); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(v, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if got := medianNS([]int64{5, 1, 3}); got != 3 {
		t.Errorf("medianNS = %g, want 3", got)
	}
}

// TestTimedDecoratorIsTransparent pins that the replay's timing decorator
// changes nothing: iteration counts and solution checksums equal those of
// the undecorated solve, at two workers (PoolAware forwarded) and through a
// chord time loop (Advance forwarded).
func TestTimedDecoratorIsTransparent(t *testing.T) {
	steady := func(decorate bool) core.Report {
		c, err := newSteadyCase(6, 2, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		var sys replaySystem = c.sys
		if decorate {
			sys = &timed{replaySystem: c.sys}
		}
		rep, err := core.NewLadder().Solve(context.Background(), sys, core.Options{Procs: 2, SkipAnalog: true, InitialGuess: c.u0}, core.LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	bare, dec := steady(false), steady(true)
	if bare.Digital.TotalIters != dec.Digital.TotalIters || bare.Digital.LinearSolves != dec.Digital.LinearSolves ||
		check.Checksum(bare.U) != check.Checksum(dec.U) {
		t.Fatalf("decorated steady solve differs: %d/%d iterations, checksums %s/%s",
			bare.Digital.TotalIters, dec.Digital.TotalIters, check.Checksum(bare.U), check.Checksum(dec.U))
	}

	march := func(decorate bool) []string {
		b, err := newTransient(4, 7)
		if err != nil {
			t.Fatal(err)
		}
		var sys core.TransientSystem = b
		if decorate {
			sys = timedTransient{timed: &timed{replaySystem: b}, b: b}
		}
		opts := core.Options{Workspace: core.NewWorkspace(), SkipAnalog: true}
		opts.Newton.Chord = true
		var sums []string
		_, err = core.TimeLoop(context.Background(), sys, opts, core.TimeLoopOptions{Steps: 8, Ladder: core.NewLadder()},
			func(f *core.Frame) error {
				sums = append(sums, fmt.Sprintf("%s/%d/%d", check.Checksum(f.U), f.Iterations, f.Refactorizations))
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return sums
	}
	if err := check.SameChecksums(march(false), march(true)); err != nil {
		t.Fatalf("decorated time loop differs: %v", err)
	}
}
