package experiments

import (
	"testing"

	"repro/internal/sim"
)

// TestEnergyGeometryMatchesPredictor pins the energy model's SRAM geometry
// to the predictor it prices: at every registered family's default and at
// every Fig. 13 budget, the structures' total bits equal SizeBits. mdptage
// is exempt — its registry entry prices one averaged 23-bit entry across
// components whose tags range over 7–15 bits. Families without an energy
// model (no structures) have nothing to pin.
func TestEnergyGeometryMatchesPredictor(t *testing.T) {
	var specs []string
	for _, f := range sim.Families() {
		specs = append(specs, f.Name)
	}
	for _, budget := range fig13Budgets {
		specs = append(specs, budget...)
	}
	checked := 0
	for _, spec := range specs {
		if spec == "mdptage" {
			continue
		}
		structs, err := sim.PredictorEnergy(spec)
		if err != nil {
			t.Fatal(err)
		}
		if structs == nil {
			continue
		}
		pred, err := sim.NewPredictor(spec)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, s := range structs {
			total += s.TotalBits()
		}
		if total != pred.SizeBits() {
			t.Errorf("%s: energy structures hold %d bits, predictor %d", spec, total, pred.SizeBits())
		}
		checked++
	}
	if checked < 10 {
		t.Errorf("only %d specs carry an energy model; the registry lost its geometry", checked)
	}
}
