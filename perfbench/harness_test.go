package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The serve-mix operation list is the workload's input: it must be a pure
// function of the seed, so a seed reproduces a run's inputs exactly.
func TestOpListPureFunctionOfSeed(t *testing.T) {
	const n, pool = 20_000, 16
	a, b := opList(7, n, pool), opList(7, n, pool)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different operation lists")
	}
	if reflect.DeepEqual(a, opList(8, n, pool)) {
		t.Fatal("different seeds gave the same operation list")
	}
	var kinds [3]int
	seeds := map[int64]bool{}
	for _, o := range a {
		kinds[o.Kind]++
		if o.Kind == opHit && (o.Pool < 0 || o.Pool >= pool) {
			t.Fatalf("hit names pool index %d of %d", o.Pool, pool)
		}
		if o.Kind != opHit {
			if o.Cfg.Seed == 0 || seeds[o.Cfg.Seed] {
				t.Fatalf("miss or upload seed %d is the default or reused", o.Cfg.Seed)
			}
			seeds[o.Cfg.Seed] = true
		}
	}
	for k, want := range [3]float64{0.90, 0.09, 0.01} {
		if got := float64(kinds[k]) / n; got < want*0.8 || got > want*1.2 {
			t.Errorf("operation kind %d share %.4f, want about %.2f", k, got, want)
		}
	}
}

// The timing decorator must not change a single counter of any run: the
// traced run's per-layer numbers are only meaningful if it simulates
// exactly what the untraced run does. "ideal" is included because it is
// the predictor that declares NeedsOracle, which the decorator forwards.
func TestTimedPredictorLeavesRunsIdentical(t *testing.T) {
	dc := newDecoratedCore(newRecorder())
	for _, name := range append(sim.PredictorNames(), "ideal") {
		cfg := sim.Config{App: "511.povray", Predictor: name, Instructions: 5_000}
		want, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dc.run(context.Background(), cfg, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("%s: decorated run differs:\n got  %+v\n want %+v", name, *got, *want)
		}
	}
	tot := spanTotals(dc.rec.snapshot())
	if tot["mdp.Predict"] == nil || tot["mdp.Predict"].Count == 0 {
		t.Error("decorator recorded no Predict calls")
	}
}

// Interval replays sum per-interval counters the way parsim stitches them;
// their rows must equal the runner's interval rows.
func TestIntervalReplayMatchesIntervalRun(t *testing.T) {
	dc := newDecoratedCore(newRecorder())
	cfg := sim.Config{App: "541.leela", Predictor: "phast", Instructions: 30_000, Intervals: sweepIntervals}
	want, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dc.runIntervals(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := *want
	w.OracleDigest = 0
	if *got != w {
		t.Errorf("interval replay differs:\n got  %+v\n want %+v", *got, w)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40}, // overlaps a: union 10..40
		{ID: 4, Parent: 1, Name: "agg", Count: 5, Total: 15},
	}
	tot := spanTotals(spans)
	if got := tot["parent"].Self; got != 100-30-15 {
		t.Errorf("parent self = %d, want 55", got)
	}
	if got := tot["agg"].Count; got != 5 {
		t.Errorf("aggregate count = %d, want 5", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	h := histDelta(
		statsSnapshot([]float64{1, 2, 4}, []uint64{0, 0, 0, 0}),
		statsSnapshot([]float64{1, 2, 4}, []uint64{2, 2, 0, 0}),
	)
	if got := histQuantile(h, 0.75); got != 1.5 {
		t.Errorf("p75 = %v, want 1.5", got)
	}
}

func statsSnapshot(bounds []float64, counts []uint64) stats.HistogramSnapshot {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return stats.HistogramSnapshot{Bounds: bounds, Counts: counts, Count: n}
}
