package sim

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestRegistryKeepsSpecIdentity pins Name() and SizeBits() of every spec the
// repository's figures, sweeps and tests use: run-cache keys, job digests
// and tables all depend on a spec meaning what it meant before the registry.
func TestRegistryKeepsSpecIdentity(t *testing.T) {
	cases := []struct {
		spec, name string
		bits       int
	}{
		{"phast", "phast", 118784},
		{"phast:", "phast", 118784},
		{"phast:16", "phast", 14848},
		{"phast:32", "phast", 29696},
		{"phast:64", "phast", 59392},
		{"phast:128", "phast", 118784},
		{"phast:256", "phast", 237568},
		{"phast:512", "phast", 475136},
		{"phast:1024", "phast", 950272},
		{"storesets", "storesets", 151552},
		{"storesets:2", "storesets", 13},
		{"storesets:2048", "storesets", 33792},
		{"storesets:4096", "storesets", 71680},
		{"storesets:16384", "storesets", 319488},
		{"nosq", "nosq", 155648},
		{"nosq:4", "nosq", 304},
		{"nosq:512", "nosq", 38912},
		{"nosq:1024", "nosq", 77824},
		{"nosq:4096", "nosq", 311296},
		{"mdptage", "mdptage", 315392},
		{"mdptage-s", "mdptage-s", 106496},
		{"storevector", "storevector", 262144},
		{"cht", "cht", 32768},
		{"perceptron-mdp", "perceptron-mdp", 34816},
		{"ideal", "ideal", 0},
		{"none", "none", 0},
		{"alwayswait", "alwayswait", 0},
		{"phast-conf:1", "phast", 118784},
		{"phast-conf:255", "phast", 118784},
		{"phast-tables:1", "phast", 14848},
		{"phast-tables:4", "phast", 59392},
		{"unlimited-phast", "unlimited-phast", 0},
		{"unlimited-phast:64", "unlimited-phast", 0},
		{"unlimited-nosq", "unlimited-nosq", 0},
		{"unlimited-nosq:0", "unlimited-nosq", 0},
		{"unlimited-nosq:16", "unlimited-nosq", 0},
		{"unlimited-mdptage", "unlimited-mdptage", 0},
	}
	for _, c := range cases {
		p, err := NewPredictor(c.spec)
		if err != nil {
			t.Errorf("NewPredictor(%q): %v", c.spec, err)
			continue
		}
		if p.Name() != c.name || p.SizeBits() != c.bits {
			t.Errorf("NewPredictor(%q) = %s/%d bits, want %s/%d", c.spec, p.Name(), p.SizeBits(), c.name, c.bits)
		}
	}
}

// TestRegistryDomainEdgesRun: every argument family's domain is exactly
// what its constructor and the pipeline accept — the smallest, default and
// largest values all build, and the smallest and default ones simulate.
func TestRegistryDomainEdgesRun(t *testing.T) {
	for _, f := range Families() {
		specs := []string{f.Name}
		if f.Arg != nil {
			for _, v := range []int{f.Arg.Min, f.Arg.Max} {
				if _, err := NewPredictor(f.Name + ":" + strconv.Itoa(v)); err != nil {
					t.Errorf("%s at domain edge %d: %v", f.Name, v, err)
				}
			}
			specs = append(specs, f.Name+":"+strconv.Itoa(f.Arg.Min))
		}
		for _, spec := range specs {
			if _, err := Run(Config{App: "511.povray", Predictor: spec, Instructions: 1500}); err != nil {
				t.Errorf("Run(%q): %v", spec, err)
			}
		}
	}
}

// TestHeadlineFamilies: PredictorNames keeps the paper's Fig. 13–16 order,
// and every headline predictor carries an energy model (Fig. 16 and
// Table II price each one and divide by its probe count).
func TestHeadlineFamilies(t *testing.T) {
	want := []string{"storesets", "nosq", "mdptage", "mdptage-s", "phast"}
	if got := PredictorNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("PredictorNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		if structs, err := PredictorEnergy(name); err != nil || len(structs) == 0 {
			t.Errorf("%s: energy structures %v, err %v", name, structs, err)
		}
	}
}

// TestREADMEListsEveryFamily keeps the README's predictor-spec table in
// step with the registry: every family and every argument domain appears.
func TestREADMEListsEveryFamily(t *testing.T) {
	blob, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(blob), "## Predictor specs")
	table, _, _ = strings.Cut(table, "\n## ")
	for _, f := range Families() {
		if !strings.Contains(table, "`"+f.Name) {
			t.Errorf("README predictor-spec table misses %s", f.Name)
		}
		if f.Arg != nil && !strings.Contains(table, f.Arg.String()) {
			t.Errorf("README predictor-spec table misses %s's domain %q", f.Name, f.Arg)
		}
	}
}
