package sim

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mdp"
	"repro/internal/pipeline"
)

// Family is one predictor family of the spec grammar "name" or
// "name:<int>". The registry (families) is the grammar's only parser:
// NewPredictor, PredictorNames, PredictorEnergy and job-spec validation
// are walks or lookups over it, so adding a predictor is adding one entry.
type Family struct {
	Name string
	// Arg is the integer argument's domain; nil for bare-name families,
	// which accept no ":" suffix at all.
	Arg *Domain
	// Headline marks the paper's finite comparison set (PredictorNames).
	Headline bool

	build      func(arg int) mdp.Predictor      // arg is in-domain (0 if bare)
	structures func(arg int) []energy.Structure // nil: no energy model
}

// Domain is the accepted range of a family's argument; Default is the value
// of the bare name and of an empty "name:" argument.
type Domain struct {
	Meaning           string // names the argument in help text
	Default, Min, Max int
	Pow2              bool // additionally require a power of two
}

// String renders the bounds as the README and error messages state them.
func (d Domain) String() string {
	kind := "integer"
	if d.Pow2 {
		kind = "power of two"
	}
	return fmt.Sprintf("%s in [%d, %d]", kind, d.Min, d.Max)
}

// histCap bounds the unlimited predictors' exact-history lengths: the
// history register every simulation runs with holds no more.
var histCap = pipeline.DefaultOptions().HistCap

// families is the predictor registry; headline families come first, in the
// paper's Fig. 13–16 order.
var families = []Family{{
	// Table II Store Sets (18.5KB); LFST = SSIT/2.
	Name: "storesets", Headline: true,
	Arg: &Domain{Meaning: "SSIT entries", Default: 8192, Min: 2, Max: 65536, Pow2: true},
	build: func(ssit int) mdp.Predictor {
		cfg := mdp.DefaultStoreSetsConfig()
		cfg.SSITEntries, cfg.LFSTEntries = ssit, ssit/2
		return mdp.NewStoreSets(cfg)
	},
	structures: func(ssit int) []energy.Structure {
		// SSIT: valid + log2(LFST)-bit SSID; LFST: valid + 10-bit store id.
		w := 1 + bits.TrailingZeros(uint(ssit/2))
		return []energy.Structure{
			{Name: "ssit", Entries: ssit, EntryBits: w, AccessBits: w, Parallel: 1},
			{Name: "lfst", Entries: ssit / 2, EntryBits: 11, AccessBits: 11, Parallel: 1},
		}
	},
}, {
	// Table II NoSQ (19KB): two 4-way tables of 22-bit tag, 7-bit counter,
	// 7-bit distance and 2 LRU bits.
	Name: "nosq", Headline: true,
	Arg: &Domain{Meaning: "entries per table", Default: 2048, Min: 4, Max: 65536, Pow2: true},
	build: func(entries int) mdp.Predictor {
		cfg := mdp.DefaultNoSQConfig()
		cfg.EntriesPerTable = entries
		return mdp.NewNoSQ(cfg)
	},
	structures: func(entries int) []energy.Structure {
		return []energy.Structure{{Name: "nosq-table", Entries: entries, EntryBits: 38, AccessBits: 4 * 38, Parallel: 2}}
	},
}, {
	// Table II standalone MDP-TAGE (38.6KB). Its energy geometry is an
	// approximation: 12 components of 16K/12 entries at an averaged 23 bits
	// (7–15-bit tags + 7-bit distance + u), so it does not sum to SizeBits.
	Name: "mdptage", Headline: true,
	build: func(int) mdp.Predictor { return mdp.NewMDPTAGE(mdp.DefaultMDPTAGEConfig()) },
	structures: func(int) []energy.Structure {
		return []energy.Structure{{Name: "mdptage-comp", Entries: 16384 / 12, EntryBits: 23, AccessBits: 4 * 23, Parallel: 12}}
	},
}, {
	// MDP-TAGE with PHAST's 8 tables and histories (13KB): 16-bit tag,
	// 7-bit distance, u and 2 LRU bits.
	Name: "mdptage-s", Headline: true,
	build: func(int) mdp.Predictor { return mdp.NewMDPTAGE(mdp.ShortMDPTAGEConfig()) },
	structures: func(int) []energy.Structure {
		return []energy.Structure{{Name: "mdptage-s-table", Entries: 512, EntryBits: 26, AccessBits: 4 * 26, Parallel: 8}}
	},
}, {
	// The paper's PHAST (14.5KB) and its Fig. 13 budget sweep: 8 4-way
	// tables of 16-bit tag, 7-bit distance, 4-bit confidence and 2 LRU bits.
	Name: "phast", Headline: true,
	Arg:   &Domain{Meaning: "sets per table", Default: core.DefaultConfig().Sets, Min: 16, Max: 65536, Pow2: true},
	build: func(sets int) mdp.Predictor { return core.New(core.BudgetConfig(sets)) },
	structures: func(sets int) []energy.Structure {
		return []energy.Structure{{Name: "phast-table", Entries: sets * 4, EntryBits: 29, AccessBits: 4 * 29, Parallel: 8}}
	},
}, {
	// Confidence-ceiling ablation.
	Name: "phast-conf",
	Arg:  &Domain{Meaning: "confidence ceiling", Default: 15, Min: 1, Max: 255},
	build: func(conf int) mdp.Predictor {
		cfg := core.DefaultConfig()
		cfg.ConfMax = uint8(conf)
		return core.New(cfg)
	},
}, {
	// History-length ablation: PHAST with its first n history lengths.
	Name: "phast-tables",
	Arg:  &Domain{Meaning: "history tables", Default: len(core.Histories), Min: 1, Max: len(core.Histories)},
	build: func(n int) mdp.Predictor {
		cfg := core.DefaultConfig()
		cfg.Histories = cfg.Histories[:n]
		return core.New(cfg)
	},
}, {
	Name:  "perceptron-mdp",
	build: func(int) mdp.Predictor { return mdp.DefaultPerceptronMDP() },
}, {
	Name:  "storevector",
	build: func(int) mdp.Predictor { return mdp.DefaultStoreVector() },
	structures: func(int) []energy.Structure {
		return []energy.Structure{{Name: "vectors", Entries: 4096, EntryBits: 64, AccessBits: 64, Parallel: 1}}
	},
}, {
	Name:  "cht",
	build: func(int) mdp.Predictor { return mdp.DefaultCHT() },
	structures: func(int) []energy.Structure {
		return []energy.Structure{{Name: "cht", Entries: 16384, EntryBits: 2, AccessBits: 2, Parallel: 1}}
	},
}, {
	Name: "ideal", build: func(int) mdp.Predictor { return mdp.NewIdeal() },
}, {
	Name: "none", build: func(int) mdp.Predictor { return mdp.NewNone() },
}, {
	Name: "alwayswait", build: func(int) mdp.Predictor { return mdp.NewAlwaysWait() },
}, {
	Name:  "unlimited-phast",
	Arg:   &Domain{Meaning: "max history, 0 = unlimited", Min: 0, Max: histCap},
	build: func(maxHist int) mdp.Predictor { return core.NewUnlimitedPHAST(maxHist) },
}, {
	Name:  "unlimited-nosq",
	Arg:   &Domain{Meaning: "history length", Default: 8, Min: 0, Max: histCap},
	build: func(h int) mdp.Predictor { return mdp.NewUnlimitedNoSQ(h) },
}, {
	Name: "unlimited-mdptage", build: func(int) mdp.Predictor { return mdp.NewUnlimitedMDPTAGE() },
}}

// Families returns the predictor registry in order.
func Families() []Family { return append([]Family(nil), families...) }

// ParsePredictorSpec resolves a spec to its family and in-domain argument
// without constructing anything. Unknown names, malformed or out-of-domain
// arguments, and arguments on bare-name families are errors naming the
// spec.
func ParsePredictorSpec(spec string) (Family, int, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	for _, f := range families {
		if f.Name != name {
			continue
		}
		d := f.Arg
		if d == nil {
			if hasArg {
				return Family{}, 0, fmt.Errorf("sim: predictor spec %q: %s takes no argument", spec, name)
			}
			return f, 0, nil
		}
		if arg == "" {
			return f, d.Default, nil
		}
		v, err := strconv.Atoi(arg)
		if err != nil {
			return Family{}, 0, fmt.Errorf("sim: predictor spec %q: non-integer argument", spec)
		}
		if v < d.Min || v > d.Max || d.Pow2 && v&(v-1) != 0 {
			return Family{}, 0, fmt.Errorf("sim: predictor spec %q: %s %d out of range (want %v)", spec, d.Meaning, v, d)
		}
		return f, v, nil
	}
	return Family{}, 0, fmt.Errorf("sim: unknown predictor spec %q", spec)
}

// NewPredictor builds a predictor from its spec (see Families; the README's
// predictor-spec table lists every family and domain). A spec outside its
// family's domain is an error, never a constructor panic.
func NewPredictor(spec string) (mdp.Predictor, error) {
	f, arg, err := ParsePredictorSpec(spec)
	if err != nil {
		return nil, err
	}
	return f.build(arg), nil
}

// PredictorNames lists the finite predictors of the paper's headline
// comparison (Fig. 13–16 order).
func PredictorNames() []string {
	var names []string
	for _, f := range families {
		if f.Headline {
			names = append(names, f.Name)
		}
	}
	return names
}

// PredictorEnergy returns the SRAM structures the energy model prices for a
// spec; nil for families without an energy model.
func PredictorEnergy(spec string) ([]energy.Structure, error) {
	f, arg, err := ParsePredictorSpec(spec)
	if err != nil || f.structures == nil {
		return nil, err
	}
	return f.structures(arg), nil
}
