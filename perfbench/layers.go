package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/mdp"
	"repro/internal/oracle"
	"repro/internal/parsim"
	"repro/internal/pipeline"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// replayInput is what a traced run's layer replays work over: the
// workload's own configs, their untraced rows, and its streams.
type replayInput struct {
	cfgs    []sim.Config
	rows    []*stats.Run
	apps    []string
	n       int
	uploads [][]byte // encoded upload bodies (serve-mix); else the apps' streams are encoded
	// decorated re-runs every config through a timed predictor (the
	// workloads whose measured phase cannot take one); intervals does so
	// as two warmed intervals, the way the interval runs of sweep-batch do.
	decorated, intervals bool
}

// layerReplays derives the per-layer metrics no phase span gives directly,
// by calling each layer's public functions over the workload's inputs with
// a span around each batch of calls.
func layerReplays(ctx context.Context, e *env, rec *recorder, in replayInput) error {
	rep := e.rep
	m := stats.NewMetrics()
	sim.PublishMetrics(m)
	hits, misses := m.Get(sim.CounterTraceInternHits), m.Get(sim.CounterTraceInternMisses)
	rep.set("sim.intern_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	rowLayers(rep, in.rows)

	if in.decorated {
		dc := newDecoratedCore(rec)
		for i, cfg := range in.cfgs {
			var row *stats.Run
			var err error
			if in.intervals {
				row, err = dc.runIntervals(ctx, cfg, int64(i)+1)
			} else {
				row, err = dc.run(ctx, cfg, 0, int64(i)+1)
			}
			if err != nil {
				return fmt.Errorf("decorated %s/%s: %w", cfg.App, cfg.Predictor, err)
			}
			want := *in.rows[i]
			want.OracleDigest = 0
			if *row != want {
				rep.fail("decorated %s/%s row differs from the untraced row", cfg.App, cfg.Predictor)
			}
		}
		dc.report(rep)
	}

	traces := make([]*trace.Trace, len(in.apps))
	for i, app := range in.apps {
		tr, err := sim.TraceFor(app, in.n, 0)
		if err != nil {
			return err
		}
		traces[i] = tr
	}
	if err := warmReplay(ctx, rec, rep, in.cfgs); err != nil {
		return err
	}
	if err := bpredReplay(rec, rep, traces); err != nil {
		return err
	}
	if err := cacheReplay(rec, rep, traces); err != nil {
		return err
	}
	if err := traceGenReplay(rec, rep, in.apps, in.n); err != nil {
		return err
	}
	bodies := in.uploads
	if len(bodies) == 0 {
		for _, tr := range traces {
			var buf bytes.Buffer
			if err := tr.Encode(&buf); err != nil {
				return err
			}
			bodies = append(bodies, buf.Bytes())
		}
	}
	if err := decodeReplay(rec, rep, bodies); err != nil {
		return err
	}
	if err := tracestoreReplay(rec, rep, e.workdir, bodies); err != nil {
		return err
	}
	checkpointReplay(rec, rep, traces)
	if err := parsimReplay(ctx, rec, rep, in.cfgs[0]); err != nil {
		return err
	}
	if err := runcacheReplay(rec, rep, e.workdir, in.cfgs, in.rows); err != nil {
		return err
	}
	ringReplay(rec, rep, in.cfgs)
	return nil
}

// timed runs fn, records it as an aggregate span of count calls, and
// returns its duration in nanoseconds.
func timed(rec *recorder, name string, count int64, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	rec.aggregate(name, 0, 0, count, int64(d))
	return float64(d), err
}

// rowLayers sets the per-layer metrics that are exact counts of the
// simulated rows.
func rowLayers(rep *report, rows []*stats.Run) {
	var t stats.Run
	for _, r := range rows {
		t.Committed += r.Committed
		t.Fetched += r.Fetched
		t.IssuedUops += r.IssuedUops
		t.Cycles += r.Cycles
		t.ROBOccupancySum += r.ROBOccupancySum
		t.MemOrderViolations += r.MemOrderViolations
		t.FalseDependencies += r.FalseDependencies
		t.BranchMispredicts += r.BranchMispredicts
		t.L1DMisses += r.L1DMisses
		t.L2Misses += r.L2Misses
		t.L3Misses += r.L3Misses
	}
	pki := func(v uint64) float64 { return 1000 * float64(v) / float64(t.Committed) }
	rep.set("pipeline.issued_per_committed", float64(t.IssuedUops)/float64(t.Committed), "ratio")
	rep.set("pipeline.useful_fetch_ratio", float64(t.Committed)/float64(t.Fetched), "ratio")
	rep.set("pipeline.rob_occupancy", t.AvgROBOccupancy(), "uops")
	rep.set("mdp.violations_pki", pki(t.MemOrderViolations), "1/kuops")
	rep.set("mdp.false_deps_pki", pki(t.FalseDependencies), "1/kuops")
	rep.set("bpred.mispredicts_pki", pki(t.BranchMispredicts), "1/kuops")
	rep.set("cache.l1d_miss_pki", pki(t.L1DMisses), "1/kuops")
	rep.set("cache.l2_miss_pki", pki(t.L2Misses), "1/kuops")
	rep.set("cache.l3_miss_pki", pki(t.L3Misses), "1/kuops")
}

// runIntervals executes cfg as two intervals the way parsim does — each on
// a fresh core, warmed over the preceding sim.DefaultIntervalWarmup µops —
// and sums their counters into one row. Predictor calls made while warming
// are not counted.
func (d *decoratedCore) runIntervals(ctx context.Context, cfg sim.Config, op int64) (*stats.Run, error) {
	tr, err := sim.TraceFor(cfg.App, cfg.Instructions, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ivs := tr.SplitN(sweepIntervals)
	var sum stats.Run
	for k, iv := range ivs {
		pred, err := sim.NewPredictor(cfg.Predictor)
		if err != nil {
			return nil, err
		}
		tp := &timedPredictor{Predictor: pred}
		c, err := pipeline.New(d.machine, tp, d.opt)
		if err != nil {
			return nil, err
		}
		warm := tr.Slice(trace.Interval{Start: max(iv.Start-sim.DefaultIntervalWarmup, 0), End: iv.Start})
		if err := c.WarmContext(ctx, warm); err != nil {
			return nil, err
		}
		tp.calls, tp.ns = [nMethods]int64{}, [nMethods]int64{}
		s := d.rec.begin("pipeline.Core.RunContext", 0, op)
		run, err := c.RunContext(ctx, tr.Slice(iv))
		s.end()
		tp.flush(d.rec, s.id(), op)
		if err != nil {
			return nil, err
		}
		d.cycles += run.Cycles
		d.committed += run.Committed
		if k == 0 {
			sum = *run
			continue
		}
		addCounters(&sum, run)
	}
	sum.Predictor = cfg.Predictor
	return &sum, nil
}

// addCounters adds every uint64 counter of b into a.
func addCounters(a, b *stats.Run) {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if f := av.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + bv.Field(i).Uint())
		}
	}
}

// warmReplay times Core.WarmContext over the warm-up slice before the
// middle of each config's stream — the slice an interval run warms over.
func warmReplay(ctx context.Context, rec *recorder, rep *report, cfgs []sim.Config) error {
	var uops int
	var ns float64
	for _, cfg := range cfgs {
		tr, err := sim.TraceFor(cfg.App, cfg.Instructions, cfg.Seed)
		if err != nil {
			return err
		}
		pred, err := sim.NewPredictor(cfg.Predictor)
		if err != nil {
			return err
		}
		c, err := pipeline.New(defaultMachine(), pred, pipeline.DefaultOptions())
		if err != nil {
			return err
		}
		mid := tr.Len() / 2
		warm := tr.Slice(trace.Interval{Start: max(mid-sim.DefaultIntervalWarmup, 0), End: mid})
		d, err := timed(rec, "pipeline.Core.WarmContext", 1, func() error { return c.WarmContext(ctx, warm) })
		if err != nil {
			return err
		}
		ns += d
		uops += warm.Len()
	}
	rep.set("pipeline.warm_ns_per_uop", ns/float64(uops), "ns/uop")
	rep.samples["pipeline.warm_ns_per_uop"] = len(cfgs)
	return nil
}

// bpredReplay drives a fresh default branch unit over every branch of the
// streams, in program order.
func bpredReplay(rec *recorder, rep *report, traces []*trace.Trace) error {
	var branches int64
	var ns float64
	for _, tr := range traces {
		dir, err := bpred.NewDir(pipeline.DefaultOptions().BranchPredictor)
		if err != nil {
			return err
		}
		u := bpred.NewUnit(dir)
		var n int64
		for i := range tr.Insts {
			if tr.Insts[i].IsBranch() {
				n++
			}
		}
		d, _ := timed(rec, "bpred.Unit.PredictAndTrain", n, func() error {
			for i := range tr.Insts {
				if in := &tr.Insts[i]; in.IsBranch() {
					u.PredictAndTrain(in)
				}
			}
			return nil
		})
		branches += n
		ns += d
	}
	rep.set("bpred.ns_per_branch", ns/float64(max(branches, 1)), "ns/branch")
	rep.samples["bpred.ns_per_branch"] = int(branches)
	return nil
}

// cacheReplay drives a fresh default cache hierarchy with one fetch per
// µop plus a load or store drain for each memory µop.
func cacheReplay(rec *recorder, rep *report, traces []*trace.Trace) error {
	var accesses int64
	var ns float64
	for _, tr := range traces {
		h := cache.New(defaultMachine())
		var n int64
		for i := range tr.Insts {
			n++
			if tr.Insts[i].IsLoad() || tr.Insts[i].IsStore() {
				n++
			}
		}
		d, _ := timed(rec, "cache.Hierarchy", n, func() error {
			for i := range tr.Insts {
				in := &tr.Insts[i]
				cycle := uint64(i)
				h.Fetch(cycle, in.PC)
				switch {
				case in.IsLoad():
					h.Load(cycle, in.PC, in.Addr)
				case in.IsStore():
					h.StoreDrain(cycle, in.Addr)
				}
			}
			return nil
		})
		accesses += n
		ns += d
	}
	rep.set("cache.ns_per_access", ns/float64(max(accesses, 1)), "ns/access")
	rep.samples["cache.ns_per_access"] = int(accesses)
	return nil
}

// traceGenReplay generates each stream cold, as an uninterned
// sim.TraceFor does, prefix structures included.
func traceGenReplay(rec *recorder, rep *report, apps []string, n int) error {
	var ns float64
	for _, app := range apps {
		prog, err := workload.ByName(app)
		if err != nil {
			return err
		}
		d, _ := timed(rec, "trace.Generate", int64(n), func() error {
			trace.Generate(prog, n, 0).Pre()
			return nil
		})
		ns += d
	}
	rep.set("trace.gen_ms_per_muop", ns/1e6/(float64(n*len(apps))/1e6), "ms/Muop")
	return nil
}

func decodeReplay(rec *recorder, rep *report, bodies [][]byte) error {
	var ns float64
	var size int
	for _, b := range bodies {
		d, err := timed(rec, "trace.Decode", 1, func() error {
			_, err := trace.Decode(bytes.NewReader(b))
			return err
		})
		if err != nil {
			return err
		}
		ns += d
		size += len(b)
	}
	rep.set("trace.decode_ms_per_mb", ns/1e6/(float64(size)/(1<<20)), "ms/MB")
	rep.samples["trace.decode_ms_per_mb"] = len(bodies)
	return nil
}

// tracestoreReplay puts every body into a fresh store, then resolves each
// digest through a second store over the same directory (so the resolve
// reads and decodes rather than hitting the first store's intern pool).
func tracestoreReplay(rec *recorder, rep *report, workdir string, bodies [][]byte) error {
	dir, err := os.MkdirTemp(workdir, "traces-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := tracestore.New(dir, tracestore.Options{})
	var digests []string
	var putNS, resolveNS float64
	for _, b := range bodies {
		var res tracestore.PutResult
		d, err := timed(rec, "tracestore.Store.Put", 1, func() error {
			var err error
			res, err = st.Put("perfbench", bytes.NewReader(b))
			return err
		})
		if err != nil {
			return err
		}
		putNS += d
		digests = append(digests, res.Digest)
	}
	cold := tracestore.New(dir, tracestore.Options{})
	for _, dg := range digests {
		d, err := timed(rec, "tracestore.Store.Trace", 1, func() error {
			_, err := cold.Trace(dg)
			return err
		})
		if err != nil {
			return err
		}
		resolveNS += d
	}
	rep.set("tracestore.put_ms", putNS/1e6/float64(len(bodies)), "ms")
	rep.set("tracestore.resolve_ms", resolveNS/1e6/float64(len(digests)), "ms")
	rep.samples["tracestore.put_ms"] = len(bodies)
	return nil
}

// checkpointReplay runs the in-order checkpoint pass of a two-interval
// split over each stream.
func checkpointReplay(rec *recorder, rep *report, traces []*trace.Trace) {
	var ns float64
	var uops int
	for _, tr := range traces {
		var starts []int
		for _, iv := range tr.SplitN(sweepIntervals) {
			starts = append(starts, iv.Start)
		}
		d, _ := timed(rec, "oracle.CheckpointPass", int64(tr.Len()), func() error {
			oracle.CheckpointPass(tr, starts)
			return nil
		})
		ns += d
		uops += tr.Len()
	}
	rep.set("oracle.checkpoint_ms_per_muop", ns/1e6/(float64(uops)/1e6), "ms/Muop")
}

// parsimReplay compares the wall time of a two-interval parsim.Run with a
// sequential Core.RunContext of the same config, best of three each.
func parsimReplay(ctx context.Context, rec *recorder, rep *report, cfg sim.Config) error {
	machine, opt := defaultMachine(), pipeline.DefaultOptions()
	tr, err := sim.TraceFor(cfg.App, cfg.Instructions, cfg.Seed)
	if err != nil {
		return err
	}
	newPred := func() (mdp.Predictor, error) { return sim.NewPredictor(cfg.Predictor) }
	var par, seq float64
	for i := 0; i < 3; i++ {
		d, err := timed(rec, "parsim.Run", 1, func() error {
			_, err := parsim.Run(ctx, tr, parsim.Job{Machine: machine, Options: opt, NewPredictor: newPred},
				parsim.Plan{Intervals: sweepIntervals, Warmup: sim.DefaultIntervalWarmup})
			return err
		})
		if err != nil {
			return err
		}
		pred, err := newPred()
		if err != nil {
			return err
		}
		c, err := pipeline.New(machine, pred, opt)
		if err != nil {
			return err
		}
		s, err := timed(rec, "pipeline.Core.RunContext.sequential", 1, func() error {
			_, err := c.RunContext(ctx, tr)
			return err
		})
		if err != nil {
			return err
		}
		if i == 0 || d < par {
			par = d
		}
		if i == 0 || s < seq {
			seq = s
		}
	}
	rep.set("parsim.vs_seq_ratio", par/seq, "ratio")
	rep.note("parsim.vs_seq_ratio over %s/%s, %d µops", cfg.App, cfg.Predictor, tr.Len())
	return nil
}

// runcacheReplay times runcache.Key, a memory-tier Cache.Cached and a
// Store.Get of entries written the way a runner writes them.
func runcacheReplay(rec *recorder, rep *report, workdir string, cfgs []sim.Config, rows []*stats.Run) error {
	const rounds = 200
	calls := int64(rounds * len(cfgs))
	keys := make([]string, len(cfgs))
	keyNS, _ := timed(rec, "runcache.Key", calls, func() error {
		for r := 0; r < rounds; r++ {
			for i, cfg := range cfgs {
				keys[i] = runcache.Key(cfg)
			}
		}
		return nil
	})
	dir, err := os.MkdirTemp(workdir, "runcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := runcache.NewStore(filepath.Join(dir, "c"))
	for i, cfg := range cfgs {
		if err := st.Put(keys[i], cfg, rows[i]); err != nil {
			return err
		}
	}
	c := runcache.New(nil, nil)
	for i, cfg := range cfgs {
		row := rows[i]
		if _, err := c.GetOrRun(context.Background(), cfg, func(context.Context) (*stats.Run, error) { return row, nil }); err != nil {
			return err
		}
	}
	memNS, err := timed(rec, "runcache.Cache.Cached", calls, func() error {
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				if _, ok := c.Cached(k); !ok {
					return fmt.Errorf("runcache: memory tier lost %s", k)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	const diskRounds = 20
	diskNS, err := timed(rec, "runcache.Store.Get", int64(diskRounds*len(keys)), func() error {
		for r := 0; r < diskRounds; r++ {
			for _, k := range keys {
				if _, ok := st.Get(k); !ok {
					return fmt.Errorf("runcache: disk tier lost %s", k)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("runcache.key_us", keyNS/1e3/float64(calls), "us")
	rep.set("runcache.mem_hit_us", memNS/1e3/float64(calls), "us")
	rep.set("runcache.disk_get_us", diskNS/1e3/float64(diskRounds*len(keys)), "us")
	return nil
}

// ringReplay times Ring.Owner over the workload's cache keys on a
// three-member ring with the default virtual-node count.
func ringReplay(rec *recorder, rep *report, cfgs []sim.Config) {
	ring := cluster.NewRing([]string{"http://n0", "http://n1", "http://n2"}, 0)
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = runcache.Key(cfg)
	}
	const rounds = 5000
	calls := int64(rounds * len(keys))
	ns, _ := timed(rec, "cluster.Ring.Owner", calls, func() error {
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				ring.Owner(k)
			}
		}
		return nil
	})
	rep.set("cluster.owner_ns", ns/float64(calls), "ns")
}
