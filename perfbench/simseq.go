package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sim-seq: one goroutine calls sim.RunContext back to back, no run cache,
// over five apps spanning IPC 0.6-4.6 and three predictors.
var (
	simSeqApps  = []string{"511.povray", "500.perlbench_3", "541.leela", "525.x264_3", "519.lbm"}
	simSeqPreds = []string{"phast", "mdptage", "storesets"}
)

const simSeqN = 100_000

func crossConfigs(apps, preds []string, n int) []sim.Config {
	var cfgs []sim.Config
	for _, app := range apps {
		for _, p := range preds {
			cfgs = append(cfgs, sim.Config{App: app, Predictor: p, Instructions: n})
		}
	}
	return cfgs
}

// timeSetup runs a workload's set-up reps times (once when traced) and
// returns the median time in reference seconds: setup_s. Each repetition
// starts from a collected heap, so the garbage of the one before is not
// charged to it.
func timeSetup(e *env, traced bool, reps int, setup func(rep, reps int) error) (float64, error) {
	if traced {
		reps = 1
	}
	var secs []float64
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		sec, err := e.ref.refSeconds(func() error { return setup(rep, reps) })
		if err != nil {
			return 0, err
		}
		secs = append(secs, sec)
	}
	e.rep.samples["setup_s"] = len(secs)
	e.rep.note("set-ups: %.4f ref-s", secs)
	return median(secs), nil
}

// genTraces generates each app's stream cold. The first set-up interns the
// streams in the simulator; later ones repeat the same generation without
// interning (the intern pool would otherwise make them free).
func genTraces(apps []string, n int, intern bool) error {
	for _, app := range apps {
		if intern {
			if err := sim.PrewarmTrace(app, n, 0); err != nil {
				return err
			}
			continue
		}
		prog, err := workload.ByName(app)
		if err != nil {
			return err
		}
		trace.Generate(prog, n, 0).Pre()
	}
	return nil
}

// phastVsTage is the geomean over apps of IPC(phast)/IPC(mdptage), in
// percent (100 = no gain; the paper's IPC gain is this minus 100), and
// phast's violations plus false dependences per kilo-µop.
func phastVsTage(cfgs []sim.Config, rows []*stats.Run) (ratioPct, mpki float64) {
	phast, tage := map[string]*stats.Run{}, map[string]*stats.Run{}
	var apps []string
	for i, cfg := range cfgs {
		switch cfg.Predictor {
		case "phast":
			phast[cfg.App] = rows[i]
			apps = append(apps, cfg.App)
		case "mdptage":
			tage[cfg.App] = rows[i]
		}
	}
	var logSum float64
	var events, committed uint64
	for _, app := range apps {
		logSum += math.Log(phast[app].IPC() / tage[app].IPC())
		events += phast[app].MemOrderViolations + phast[app].FalseDependencies
		committed += phast[app].Committed
	}
	return 100 * math.Exp(logSum/float64(len(apps))), 1000 * float64(events) / float64(committed)
}

// simPhase is one measured stretch of whole passes over a workload's
// configs. Its throughputs are per reference second (see refMonitor), each
// pass scaled by the kernel chunks that ran during it.
// They are medians over passes: a burst of contention slows a few passes,
// not the result.
type simPhase struct {
	runs, bad  int
	uops       uint64
	wall, cpu  time.Duration
	passMuops  []float64 // per pass: committed Muops per wall second
	passRefMu  []float64 // per pass: committed Muops per reference second
	passRefRun []float64 // per pass: successful runs per reference second
	firstBad   string
}

func (p simPhase) muopsPerRef() float64 { return median(append([]float64(nil), p.passRefMu...)) }

func (p simPhase) runsPerRef() float64 { return median(append([]float64(nil), p.passRefRun...)) }

// passFunc runs one pass over a workload's configs in the given order
// (indices into its config list) and returns the rows in that order.
type passFunc func(ctx context.Context, pass int, order []int) ([]*stats.Run, error)

// runPhase runs whole passes, each over the configs in a seeded random
// order, until d has elapsed, checking every row against its reference.
func runPhase(ctx context.Context, cfgs []sim.Config, refs []*stats.Run, rng *rand.Rand, d time.Duration, ref *refMonitor, pass passFunc) (simPhase, error) {
	var p simPhase
	start, cpu0 := time.Now(), cpuTime()
	for n := 1; time.Since(start) < d && ctx.Err() == nil; n++ {
		order := rng.Perm(len(cfgs))
		var rows []*stats.Run
		var wall time.Duration
		refSec, err := ref.refSeconds(func() (err error) {
			t0 := time.Now()
			rows, err = pass(ctx, n, order)
			wall = time.Since(t0)
			return err
		})
		if err != nil {
			return p, err
		}
		uops, ok := p.uops, p.runs-p.bad
		for k, i := range order {
			p.runs++
			if *rows[k] != *refs[i] {
				p.bad++
				p.firstBad = fmt.Sprintf("pass %d: %s/%s row differs from its reference", n, cfgs[i].App, cfgs[i].Predictor)
				continue
			}
			p.uops += rows[k].Committed
		}
		p.passMuops = append(p.passMuops, float64(p.uops-uops)/wall.Seconds()/1e6)
		p.passRefMu = append(p.passRefMu, float64(p.uops-uops)/refSec/1e6)
		p.passRefRun = append(p.passRefRun, float64(p.runs-p.bad-ok)/refSec)
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	return p, nil
}

// seqPass is sim-seq's pass: run calls config i; the pass adds the time
// spent in run to *simNS.
func seqPass(cfgs []sim.Config, simNS *time.Duration, run func(ctx context.Context, op int64, cfg sim.Config) (*stats.Run, error)) passFunc {
	return func(ctx context.Context, pass int, order []int) ([]*stats.Run, error) {
		rows := make([]*stats.Run, len(order))
		for k, i := range order {
			t0 := time.Now()
			r, err := run(ctx, int64((pass-1)*len(order)+k+1), cfgs[i])
			*simNS += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", cfgs[i].App, cfgs[i].Predictor, err)
			}
			rows[k] = r
		}
		return rows, nil
	}
}

func runSimSeq(ctx context.Context, e *env, traced bool) error {
	cfgs := crossConfigs(simSeqApps, simSeqPreds, simSeqN)
	var refs []*stats.Run
	// Five set-ups: sim-seq's setup_s spread 8.5% and 9.9% (IQR/median)
	// over ten runs with three.
	setup, err := timeSetup(e, traced, 5, func(rep, reps int) error {
		return simSeqSetup(ctx, e, cfgs, rep, reps, traced, &refs)
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(e.seed))
	d := e.seconds
	if traced {
		d /= 2
	}
	var simNS time.Duration
	ph, err := runPhase(ctx, cfgs, refs, rng, d, e.ref, seqPass(cfgs, &simNS, func(ctx context.Context, _ int64, cfg sim.Config) (*stats.Run, error) {
		return sim.RunContext(ctx, cfg)
	}))
	if err != nil {
		return err
	}
	e.rep.attempted += ph.runs
	e.rep.failed += ph.bad
	if ph.bad > 0 {
		e.rep.fail("%d of %d runs differed from their first run; last: %s", ph.bad, ph.runs, ph.firstBad)
	}
	if !traced {
		e.rep.set("setup_s", setup, "s")
		simReport(e.rep, ph, cfgs, refs)
		return crossCheck(ctx, e.rep, cfgs, refs)
	}

	rec := newRecorder()
	dc := newDecoratedCore(rec)
	var tracedNS time.Duration
	tph, err := runPhase(ctx, cfgs, refs, rng, d, e.ref, seqPass(cfgs, &tracedNS, func(ctx context.Context, op int64, cfg sim.Config) (*stats.Run, error) {
		s := rec.begin("sim-seq.run", 0, op)
		defer s.end()
		return dc.run(ctx, cfg, s.id(), op)
	}))
	if err != nil {
		return err
	}
	e.rep.attempted += tph.runs
	e.rep.failed += tph.bad
	if tph.bad > 0 {
		e.rep.fail("traced: %d of %d decorated runs differed from the untraced rows; last: %s", tph.bad, tph.runs, tph.firstBad)
	}
	e.rep.set("trace.overhead_pct", 100*(ph.muopsPerRef()-tph.muopsPerRef())/ph.muopsPerRef(), "%")
	e.rep.set("experiments.sim_share", float64(simNS)/float64(ph.wall), "ratio")
	dc.report(e.rep)
	if err := layerReplays(ctx, e, rec, replayInput{cfgs: cfgs, rows: refs, apps: simSeqApps, n: simSeqN}); err != nil {
		return err
	}
	if err := serveProbe(ctx, e, rec, cfgs, refs, 2*time.Second); err != nil {
		return err
	}
	return rec.write(e.workdir + "/spans.json")
}

// simSeqSetup is one repetition of sim-seq's set-up: trace generation (the
// first also interns), oracle verification of this repetition's share of
// the configs, and one unmeasured pass that fills the core pool. The first
// repetition's rows become the references every timed run must equal.
func simSeqSetup(ctx context.Context, e *env, cfgs []sim.Config, rep, reps int, traced bool, refs *[]*stats.Run) error {
	if err := genTraces(simSeqApps, simSeqN, rep == 0); err != nil {
		return err
	}
	// Each set-up verifies its share of the configs against the
	// architectural oracle, so every config is verified once per run and
	// the set-ups stay equal in work.
	for i, cfg := range cfgs {
		if i%reps != rep && !traced {
			continue
		}
		v := cfg
		v.Verify = true
		if _, err := sim.RunContext(ctx, v); err != nil {
			e.rep.fail("oracle verify %s/%s: %v", cfg.App, cfg.Predictor, err)
		}
	}
	for i, cfg := range cfgs {
		r, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return fmt.Errorf("setup run %s/%s: %w", cfg.App, cfg.Predictor, err)
		}
		if rep == 0 {
			*refs = append(*refs, r)
		} else if *r != *(*refs)[i] {
			e.rep.fail("setup %d: %s/%s row differs from the first setup's", rep, cfg.App, cfg.Predictor)
		}
	}
	return nil
}

// simReport sets the simulator workloads' end-to-end metrics.
func simReport(rep *report, ph simPhase, cfgs []sim.Config, rows []*stats.Run) {
	rep.set("sim_muops_per_ref_s", ph.muopsPerRef(), "Muops/ref-s")
	rep.samples["sim_muops_per_ref_s"] = len(ph.passRefMu)
	rep.set("req_per_ref_s", ph.runsPerRef(), "1/ref-s")
	rep.samples["req_per_ref_s"] = len(ph.passRefRun)
	rep.set("success_ratio", float64(ph.runs-ph.bad)/float64(max(ph.runs, 1)), "ratio")
	rep.samples["success_ratio"] = ph.runs
	ratio, mpki := phastVsTage(cfgs, rows)
	rep.set("phast_ipc_vs_mdptage_pct", ratio, "%")
	rep.set("phast_mdp_mpki", mpki, "1/kuops")
	rep.note("wall clock: %.3f Muops/s and %.3f runs/s over %.2f s (process CPU %.2f s); per-pass Muops/s %.3f",
		float64(ph.uops)/ph.wall.Seconds()/1e6, float64(ph.runs)/ph.wall.Seconds(), ph.wall.Seconds(), ph.cpu.Seconds(), ph.passMuops)
	rep.note("per-pass Muops/ref-s %.3f", ph.passRefMu)
	rep.note("%d operations (%d differed) in %d passes", ph.runs, ph.bad, len(ph.passMuops))
}

// crossCheck recomputes the deterministic metrics from experiments.Runner
// rows of the same configs — the path paperfigs takes — and fails the run
// unless they are bit-identical to the benchmark's own.
func crossCheck(ctx context.Context, rep *report, cfgs []sim.Config, rows []*stats.Run) error {
	var sub []sim.Config
	for _, cfg := range cfgs {
		if cfg.Predictor == "phast" || cfg.Predictor == "mdptage" {
			sub = append(sub, cfg)
		}
	}
	r := experiments.NewRunner(experiments.Options{Workers: 1, Instructions: simSeqN, Context: ctx})
	defer r.Close()
	runRows, err := r.RunConfigs(sub)
	if err != nil {
		return fmt.Errorf("cross-check runner: %w", err)
	}
	g1, m1 := phastVsTage(cfgs, rows)
	g2, m2 := phastVsTage(sub, runRows)
	if g1 != g2 || m1 != m2 {
		rep.fail("cross-check: benchmark IPC ratio %v%% mpki %v != experiments.Runner IPC ratio %v%% mpki %v", g1, m1, g2, m2)
	}
	return nil
}

// decoratedCore runs configs on benchmark-built cores whose predictor is
// wrapped in a timedPredictor, recording a span per pipeline call with one
// aggregate child per predictor method. It keeps one core and Resets it
// between runs, as the simulator's core pool does.
type decoratedCore struct {
	rec     *recorder
	machine config.Machine
	opt     pipeline.Options
	core    *pipeline.Core

	cycles, committed uint64
}

func newDecoratedCore(rec *recorder) *decoratedCore {
	return &decoratedCore{rec: rec, machine: defaultMachine(), opt: pipeline.DefaultOptions()}
}

// defaultMachine is the machine every workload config runs on.
func defaultMachine() config.Machine {
	m, err := config.ByName(sim.Config{}.Normalized().Machine)
	if err != nil {
		panic(err) // the default machine always exists
	}
	return m
}

// run executes one sequential config.
func (d *decoratedCore) run(ctx context.Context, cfg sim.Config, parent, op int64) (*stats.Run, error) {
	pred, err := sim.NewPredictor(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	tp := &timedPredictor{Predictor: pred}
	tr, err := sim.TraceFor(cfg.App, cfg.Instructions, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if d.core == nil {
		d.core, err = pipeline.New(d.machine, tp, d.opt)
	} else {
		err = d.core.Reset(tp)
	}
	if err != nil {
		return nil, err
	}
	s := d.rec.begin("pipeline.Core.RunContext", parent, op)
	run, err := d.core.RunContext(ctx, tr)
	s.end()
	tp.flush(d.rec, s.id(), op)
	if err != nil {
		d.core = nil // mid-run core: never reused
		return nil, err
	}
	run.Predictor = cfg.Predictor
	d.cycles += run.Cycles
	d.committed += run.Committed
	return run, nil
}

// report derives the pipeline and mdp per-layer metrics from the spans
// the decorated runs recorded.
func (d *decoratedCore) report(rep *report) {
	tot := spanTotals(d.rec.snapshot())
	get := func(name string) spanTotal {
		if t := tot[name]; t != nil {
			return *t
		}
		return spanTotal{}
	}
	core := get("pipeline.Core.RunContext")
	rep.set("pipeline.self_ns_per_cycle", float64(core.Self)/float64(max(d.cycles, 1)), "ns/cycle")
	rep.samples["pipeline.self_ns_per_cycle"] = int(core.Count)
	var mdpNS, mdpCalls int64
	for _, n := range methodNames {
		mdpNS += get(n).Duration
		mdpCalls += get(n).Count
	}
	kuops := float64(max(d.committed, 1)) / 1000
	rep.set("mdp.ns_per_uop", float64(mdpNS)/(kuops*1000), "ns/uop")
	rep.set("mdp.calls_per_kuop", float64(mdpCalls)/kuops, "calls/kuop")
	pr := get("mdp.Predict")
	rep.set("mdp.predict_ns", float64(pr.Duration)/float64(max(pr.Count, 1)), "ns")
	rep.samples["mdp.predict_ns"] = int(pr.Count)
	tv, tc := get("mdp.TrainViolation"), get("mdp.TrainCommit")
	rep.set("mdp.train_ns", float64(tv.Duration+tc.Duration)/float64(max(tv.Count+tc.Count, 1)), "ns")
	rep.samples["mdp.train_ns"] = int(tv.Count + tc.Count)
}
