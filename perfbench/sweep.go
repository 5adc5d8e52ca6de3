package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// sweep-batch: experiments.Runner batches of 8 predictors x 2 apps with
// two oracle-checkpointed intervals per run, one worker, and a fresh
// on-disk run cache per pass.
var (
	sweepApps  = []string{"511.povray", "541.leela"}
	sweepPreds = []string{"phast", "storesets", "nosq", "mdptage", "mdptage-s", "storevector", "cht", "none"}
)

const (
	sweepN         = 100_000
	sweepIntervals = 2
)

// batchPass is one batch over a fresh run cache.
type batchPass struct {
	rows  []*stats.Run
	wall  time.Duration
	simNS uint64
}

// sweepPass runs cfgs (in order) through a new runner over a new cache
// directory under dir, which the caller removes.
func sweepPass(ctx context.Context, dir string, cfgs []sim.Config) (batchPass, error) {
	reg := stats.NewMetrics()
	r := experiments.NewRunner(experiments.Options{
		Instructions: sweepN,
		Workers:      1,
		Intervals:    sweepIntervals,
		CacheDir:     dir,
		Metrics:      reg,
		KeepGoing:    true,
		Context:      ctx,
	})
	defer r.Close()
	t0 := time.Now()
	res := r.RunConfigsDetailedContext(ctx, cfgs)
	p := batchPass{wall: time.Since(t0), simNS: reg.Get(runcache.CounterSimNanos)}
	for _, x := range res {
		if x.Err != nil {
			return p, fmt.Errorf("%s/%s: %w", x.Config.App, x.Config.Predictor, x.Err)
		}
		if x.Run.OracleDigest == 0 {
			return p, fmt.Errorf("%s/%s: row carries no stitched oracle digest", x.Config.App, x.Config.Predictor)
		}
		p.rows = append(p.rows, x.Run)
	}
	return p, nil
}

// batchPassFunc is sweep-batch's pass: each runs the configs in the given
// order through sweepPass over a fresh cache directory, and adds the
// batch's wall time and the runner's simulation time to the totals.
func batchPassFunc(dir string, cfgs []sim.Config, batchNS, simNS *uint64) passFunc {
	return func(ctx context.Context, _ int, order []int) ([]*stats.Run, error) {
		ordered := make([]sim.Config, len(order))
		for k, i := range order {
			ordered[k] = cfgs[i]
		}
		d, err := os.MkdirTemp(dir, "pass-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		bp, err := sweepPass(ctx, d, ordered)
		*batchNS += uint64(bp.wall)
		*simNS += bp.simNS
		return bp.rows, err
	}
}

func runSweepBatch(ctx context.Context, e *env, traced bool) error {
	cfgs := crossConfigs(sweepApps, sweepPreds, sweepN)
	var refs []*stats.Run
	setup, err := timeSetup(e, traced, 3, func(rep, _ int) error {
		if err := genTraces(sweepApps, sweepN, rep == 0); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(e.workdir, "setup-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		bp, err := sweepPass(ctx, dir, cfgs)
		if err != nil {
			return fmt.Errorf("setup pass: %w", err)
		}
		if rep == 0 {
			refs = bp.rows
			return nil
		}
		for i := range refs {
			if *bp.rows[i] != *refs[i] {
				e.rep.fail("setup %d: %s/%s row differs from the first setup's", rep, cfgs[i].App, cfgs[i].Predictor)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(e.seed))
	d := e.seconds
	if traced {
		d /= 2
	}
	var batchNS, simNS uint64
	ph, err := runPhase(ctx, cfgs, refs, rng, d, e.ref, batchPassFunc(e.workdir, cfgs, &batchNS, &simNS))
	if err != nil {
		return err
	}
	e.rep.attempted += ph.runs
	e.rep.failed += ph.bad
	if ph.bad > 0 {
		e.rep.fail("%d of %d rows differed across passes; last: %s", ph.bad, ph.runs, ph.firstBad)
	}
	if !traced {
		e.rep.set("setup_s", setup, "s")
		simReport(e.rep, ph, cfgs, refs)
		return nil
	}

	rec := newRecorder()
	var tBatchNS, tSimNS uint64
	batch := batchPassFunc(e.workdir, cfgs, &tBatchNS, &tSimNS)
	tph, err := runPhase(ctx, cfgs, refs, rng, d, e.ref, func(ctx context.Context, pass int, order []int) ([]*stats.Run, error) {
		s := rec.begin("sweep-batch.pass", 0, int64(pass))
		defer s.end()
		c := rec.begin("experiments.Runner.RunConfigsDetailedContext", s.id(), int64(pass))
		defer c.end()
		return batch(ctx, pass, order)
	})
	if err != nil {
		return err
	}
	e.rep.attempted += tph.runs
	e.rep.failed += tph.bad
	if tph.bad > 0 {
		e.rep.fail("traced: %d of %d rows differed across passes; last: %s", tph.bad, tph.runs, tph.firstBad)
	}
	e.rep.set("trace.overhead_pct", 100*(ph.muopsPerRef()-tph.muopsPerRef())/ph.muopsPerRef(), "%")
	e.rep.set("experiments.sim_share", float64(simNS)/float64(batchNS), "ratio") // one worker
	if err := layerReplays(ctx, e, rec, replayInput{cfgs: cfgs, rows: refs, apps: sweepApps, n: sweepN,
		decorated: true, intervals: true}); err != nil {
		return err
	}
	if err := serveProbe(ctx, e, rec, withIntervals(cfgs), refs, 2*time.Second); err != nil {
		return err
	}
	return rec.write(e.workdir + "/spans.json")
}

// withIntervals spells out the runner's interval default in each config,
// as the run cache keys it.
func withIntervals(cfgs []sim.Config) []sim.Config {
	out := make([]sim.Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Intervals = sweepIntervals
		out[i] = cfg.Normalized()
	}
	return out
}
