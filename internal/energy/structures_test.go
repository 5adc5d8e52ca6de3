package energy_test

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/sim"
)

// structures returns a spec's energy geometry from the predictor registry
// (internal/sim), which owns the spec grammar.
func structures(t *testing.T, spec string) []energy.Structure {
	t.Helper()
	s, err := sim.PredictorEnergy(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAnchorsNearTableII: the calibrated model must land near every
// Table II per-access value it was fitted to (single-scale least squares,
// so individual points deviate, but each must stay within 2.5×).
func TestAnchorsNearTableII(t *testing.T) {
	cases := []struct {
		spec string
		want float64
	}{
		{"storesets", 0.2403 + 0.1026}, // SSIT + LFST per full access
		{"nosq", 0.3721},
		{"mdptage", 1.3103},
		{"mdptage-s", 0.4421},
		{"phast", 0.4856},
	}
	for _, c := range cases {
		got := energy.PerAccessPJ(structures(t, c.spec))
		ratio := got / c.want
		if ratio < 0.6 || ratio > 1.6 {
			t.Errorf("%s: per-access %.4f pJ, Table II %.4f (ratio %.2f)", c.spec, got, c.want, ratio)
		}
	}
}

func TestEnergyOrderingMatchesPaper(t *testing.T) {
	// Fig. 16's main observation: the 12-component TAGE-like structure
	// costs far more per access than the others.
	tage := energy.PerAccessPJ(structures(t, "mdptage"))
	for _, spec := range []string{"storesets", "nosq", "mdptage-s", "phast"} {
		if got := energy.PerAccessPJ(structures(t, spec)); got >= tage {
			t.Errorf("%s (%.3f pJ) should cost less per access than mdptage (%.3f pJ)",
				spec, got, tage)
		}
	}
}

func TestEnergyMonotonicInSize(t *testing.T) {
	small := energy.PerAccessPJ(structures(t, "phast:32"))
	big := energy.PerAccessPJ(structures(t, "phast:512"))
	if small >= big {
		t.Errorf("larger tables must cost more per access: %.4f vs %.4f", small, big)
	}
}

func TestStructuresForUnknown(t *testing.T) {
	if structures(t, "ideal") != nil {
		t.Error("storage-free predictors have no structures")
	}
	s := structures(t, "phast")
	if len(s) != 1 || s[0].Parallel != 8 {
		t.Errorf("PHAST probes 8 tables, got %+v", s)
	}
}

func TestStructuresBudgetArg(t *testing.T) {
	s := structures(t, "phast:256")
	if len(s) != 1 || s[0].Entries != 256*4 {
		t.Errorf("phast:256 structures = %+v", s)
	}
	s = structures(t, "storesets:4096")
	if len(s) != 2 || s[0].Entries != 4096 || s[1].Entries != 2048 {
		t.Errorf("storesets:4096 structures = %+v", s)
	}
	// A malformed argument is a spec error, not a silent default.
	if _, err := sim.PredictorEnergy("phast:bogus"); err == nil {
		t.Error("phast:bogus must be rejected")
	}
}
