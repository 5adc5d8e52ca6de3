package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runcache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// serve-mix: a closed loop of two clients against an in-process 3-node
// fleet. About 90% of operations are cache hits drawn zipfian from a pool
// simulated during setup, 9% are misses (fresh seeds, short streams) and
// 1% are trace uploads each followed by a run-by-digest on another node.
var (
	serveApps  = []string{"511.povray", "541.leela", "525.x264_3", "519.lbm"}
	servePreds = []string{"phast", "mdptage", "storesets", "nosq"}
)

const (
	serveN      = 20_000 // pool stream length
	missN       = 5_000  // miss and upload stream length
	serveOps    = 1 << 18
	serveClient = 2
)

func servePool() []sim.Config {
	var cfgs []sim.Config
	for _, app := range serveApps {
		for _, p := range servePreds {
			cfgs = append(cfgs, sim.Config{App: app, Predictor: p, Instructions: serveN})
		}
	}
	return cfgs
}

type opKind uint8

const (
	opHit opKind = iota
	opMiss
	opUpload
)

// op is one client operation. A hit names a pool index; a miss carries its
// config; an upload carries the workload, seed and predictor of the trace
// it uploads and then runs by digest.
type op struct {
	Kind opKind
	Pool int
	Cfg  sim.Config
}

// opList is the serve-mix operation sequence: a pure function of seed.
func opList(seed int64, n, poolSize int) []op {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(poolSize-1))
	// Miss and upload streams get seeds no other run of the list uses.
	fresh := int64(uint32(seed))<<24 + 1
	ops := make([]op, n)
	for i := range ops {
		x := rng.Float64()
		switch {
		case x < 0.01:
			ops[i] = op{Kind: opUpload, Cfg: sim.Config{
				App: serveApps[rng.Intn(len(serveApps))], Predictor: servePreds[rng.Intn(len(servePreds))],
				Instructions: missN, Seed: fresh + int64(i)}}
		case x < 0.10:
			ops[i] = op{Kind: opMiss, Cfg: sim.Config{
				App: serveApps[rng.Intn(len(serveApps))], Predictor: servePreds[rng.Intn(len(servePreds))],
				Instructions: missN, Seed: fresh + int64(i)}}
		default:
			ops[i] = op{Kind: opHit, Pool: int(zipf.Uint64())}
		}
	}
	return ops
}

// session is one fleet plus the operations run against it.
type session struct {
	f    *fleet
	pool []sim.Config
	refs []json.RawMessage // reference row per pool config, from setup
	ops  []op
	next atomic.Int64

	mu       sync.Mutex
	ph       phaseSamples
	issued   int // operations started: each miss and upload simulates once
	uploads  [][]byte
	lastFail string
}

// phaseSamples are the client-side observations of one measured phase.
type phaseSamples struct {
	ops, failed              int
	okUops                   float64       // µops simulated by successful misses and uploads
	cpu                      time.Duration // process CPU time used in the phase
	winReq, winUops          []float64     // per one-second window: per reference second
	hit, hitOwner, hitOther  []float64     // ms
	miss, upload             []float64     // ms
	missIssued, uploadIssued int
}

func (s *session) take() (int, bool) {
	i := int(s.next.Add(1) - 1)
	return i, i < len(s.ops)
}

// do runs operation i from client c, whose round-robin cursor picks the node.
func (s *session) do(ctx context.Context, c *client, cursor *int, i int) {
	o := s.ops[i]
	nodeURL := func() string {
		u := s.f.nodes[*cursor%len(s.f.nodes)].url
		*cursor++
		return u
	}
	if s.f.recording() {
		sp := s.f.rec.begin("client.op", 0, int64(i)+1)
		defer sp.end()
		ctx = withSpan(ctx, int64(i)+1, sp.id())
	}
	var (
		err      error
		lat      float64
		upLat    float64
		owner    bool
		simulate bool
	)
	switch o.Kind {
	case opHit:
		url := nodeURL()
		cfg := s.pool[o.Pool]
		owner = s.f.owns(url, cfg)
		t0 := time.Now()
		var raw json.RawMessage
		raw, err = c.runRow(ctx, url, cfg)
		lat = ms(time.Since(t0))
		if err == nil && !bytes.Equal(raw, s.refs[o.Pool]) {
			err = fmt.Errorf("hit row for %s/%s differs from its setup reference", cfg.App, cfg.Predictor)
		}
	case opMiss:
		simulate = true
		s.count(func() { s.issued++; s.ph.missIssued++ })
		t0 := time.Now()
		var raw json.RawMessage
		raw, err = c.runRow(ctx, nodeURL(), o.Cfg)
		lat = ms(time.Since(t0))
		if err == nil {
			err = checkCommitted(raw, o.Cfg.Instructions)
		}
	case opUpload:
		simulate = true
		var body []byte
		body, err = encodeTrace(o.Cfg.App, o.Cfg.Instructions, o.Cfg.Seed)
		if err != nil {
			break
		}
		s.count(func() {
			s.issued++
			s.ph.uploadIssued++
			if len(s.uploads) < 8 {
				s.uploads = append(s.uploads, body)
			}
		})
		t0 := time.Now()
		var digest string
		digest, err = c.upload(ctx, nodeURL(), body)
		upLat = ms(time.Since(t0))
		if err != nil {
			break
		}
		cfg := sim.Config{App: sim.TraceAppPrefix + digest, Predictor: o.Cfg.Predictor, Instructions: o.Cfg.Instructions}
		t1 := time.Now()
		var raw json.RawMessage
		raw, err = c.runRow(ctx, nodeURL(), cfg)
		lat = ms(time.Since(t1))
		if err == nil {
			err = checkCommitted(raw, o.Cfg.Instructions)
		}
	}
	s.count(func() {
		s.ph.ops++
		if err != nil {
			s.ph.failed++
			s.lastFail = err.Error()
			return
		}
		switch {
		case o.Kind == opHit:
			s.ph.hit = append(s.ph.hit, lat)
			if owner {
				s.ph.hitOwner = append(s.ph.hitOwner, lat)
			} else {
				s.ph.hitOther = append(s.ph.hitOther, lat)
			}
		case simulate:
			s.ph.okUops += float64(o.Cfg.Instructions)
			s.ph.miss = append(s.ph.miss, lat)
			if o.Kind == opUpload {
				s.ph.upload = append(s.ph.upload, upLat)
			}
		}
	})
}

func (s *session) count(fn func()) {
	s.mu.Lock()
	fn()
	s.mu.Unlock()
}

func checkCommitted(raw json.RawMessage, want int) error {
	run, err := decodeRun(raw)
	if err != nil {
		return err
	}
	if run.Committed != uint64(want) {
		return fmt.Errorf("run committed %d of %d micro-ops", run.Committed, want)
	}
	return nil
}

// encodeTrace generates and encodes one upload body.
func encodeTrace(app string, n int, seed int64) ([]byte, error) {
	prog, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.Generate(prog, n, seed).Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// phase runs the clients for d and returns the samples and the wall time.
// ref converts each window's CPU time to reference seconds.
func (s *session) phase(ctx context.Context, d time.Duration, ref *refMonitor) (phaseSamples, time.Duration) {
	s.mu.Lock()
	s.ph = phaseSamples{}
	s.mu.Unlock()
	// Every second, note completions and the reference-time mark. Each
	// window is scaled by the kernel chunks that ran during it, and the
	// throughputs are medians over the windows, so a burst of contention
	// moves a few windows, not the result.
	type mark struct {
		ops, uops float64
		at        refMark
	}
	start, cpu0 := time.Now(), cpuTime()
	marks := []mark{{at: ref.mark()}}
	stop, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.mu.Lock()
				m := mark{ops: float64(s.ph.ops - s.ph.failed), uops: s.ph.okUops}
				s.mu.Unlock()
				m.at = ref.mark()
				marks = append(marks, m)
			}
		}
	}()
	clientLoop(ctx, serveClient, start.Add(d), s.take, func(c *client, cursor *int, i int) {
		s.do(ctx, c, cursor, i)
	}, s.f.rec != nil)
	close(stop)
	<-ticked
	wall, cpu := time.Since(start), cpuTime()-cpu0
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ph.cpu = cpu
	for i := 1; i < len(marks) && i <= int(d/time.Second); i++ {
		refSec := ref.since(marks[i-1].at, marks[i].at)
		s.ph.winReq = append(s.ph.winReq, (marks[i].ops-marks[i-1].ops)/refSec)
		s.ph.winUops = append(s.ph.winUops, (marks[i].uops-marks[i-1].uops)/refSec)
	}
	return s.ph, wall
}

// reqPerRef is completed operations per reference second of the process,
// which hosts clients and fleet alike: the median over one-second windows.
func (p phaseSamples) reqPerRef() float64 { return median(append([]float64(nil), p.winReq...)) }

// muopsPerRef is simulated Muops per reference second, likewise.
func (p phaseSamples) muopsPerRef() float64 {
	return median(append([]float64(nil), p.winUops...)) / 1e6
}

// fleetCounters are the fleet-wide counters and histograms a phase's
// per-layer metrics are deltas of.
type fleetCounters struct {
	c map[string]uint64
	h map[string]stats.HistogramSnapshot
}

var fleetCounterNames = []string{
	server.CounterRequests, server.CounterCoalesced, server.CounterRejected, server.CounterProxied,
	runcache.CounterMemHits, runcache.CounterDiskHits, runcache.CounterPeerHits, runcache.CounterMisses,
	runcache.CounterRunsSimulated, runcache.CounterSimUops, runcache.CounterSimNanos,
}

func (f *fleet) counters() fleetCounters {
	fc := fleetCounters{c: map[string]uint64{}, h: map[string]stats.HistogramSnapshot{}}
	for _, n := range fleetCounterNames {
		fc.c[n] = f.sum(n)
	}
	for _, n := range []string{server.HistLatency, server.HistQueueWait} {
		fc.h[n] = f.hist(n)
	}
	return fc
}

func (a fleetCounters) delta(b fleetCounters, name string) float64 {
	return float64(b.c[name] - a.c[name])
}

// histDelta subtracts a's histogram from b's.
func histDelta(a, b stats.HistogramSnapshot) stats.HistogramSnapshot {
	out := stats.HistogramSnapshot{Bounds: b.Bounds, Counts: append([]uint64(nil), b.Counts...), Count: b.Count - a.Count}
	for i := range a.Counts {
		if i < len(out.Counts) {
			out.Counts[i] -= a.Counts[i]
		}
	}
	return out
}

// histQuantile estimates a quantile from bucket counts, interpolating
// linearly inside the bucket that holds it.
func histQuantile(h stats.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[min(i, len(h.Bounds)-1)]
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// startSession boots a fleet and fills it: pool configs are requested once
// each (they simulate on their owners) unless rows are given, in which case
// they are written into every node's run cache instead.
func startSession(ctx context.Context, dir string, instructions int, rec *recorder,
	pool []sim.Config, rows []*stats.Run) (*session, error) {
	var seed func(string) error
	if rows != nil {
		seed = func(cacheDir string) error { return seedCache(cacheDir, pool, rows) }
	}
	f, err := startFleet(dir, instructions, rec, seed)
	if err != nil {
		return nil, err
	}
	s := &session{f: f, pool: pool}
	c := newClient(false)
	defer c.close()
	for i, cfg := range pool {
		raw, err := c.runRow(ctx, f.nodes[i%len(f.nodes)].url, cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("prewarm %s/%s: %w", cfg.App, cfg.Predictor, err)
		}
		s.refs = append(s.refs, raw)
	}
	return s, nil
}

func runServeMix(ctx context.Context, e *env, traced bool) error {
	pool := servePool()
	var rec *recorder
	if traced {
		rec = newRecorder()
		defer installSpanTransport()()
	}
	// A set-up is 0.3 ref-s, a tenth of the simulator workloads', so it is
	// repeated more often for the same steadiness. Each set-up's fleet stays
	// up until all are done, so no set-up is charged for closing another's.
	var sessions []*session
	setup, err := timeSetup(e, traced, 7, func(rep, _ int) error {
		if err := genTraces(serveApps, serveN, rep == 0); err != nil {
			return err
		}
		s, err := startSession(ctx, filepath.Join(e.workdir, fmt.Sprintf("fleet%d", rep)), serveN, rec, pool, nil)
		if err == nil {
			sessions = append(sessions, s)
		}
		return err
	})
	defer func() {
		for _, s := range sessions {
			s.f.close()
		}
	}()
	if err != nil {
		return err
	}
	s := sessions[len(sessions)-1]
	for rep, other := range sessions[1:] {
		for i := range other.refs {
			if !bytes.Equal(sessions[0].refs[i], other.refs[i]) {
				e.rep.fail("setup %d: pool row %d differs from the first setup's", rep+1, i)
			}
		}
	}
	if !traced {
		e.rep.set("setup_s", setup, "s")
	}
	s.ops = opList(e.seed, serveOps, len(pool))
	rows := make([]*stats.Run, len(pool))
	for i, raw := range s.refs {
		run, err := decodeRun(raw)
		if err != nil {
			return err
		}
		rows[i] = run
	}

	d := e.seconds
	if traced {
		d /= 2
	}
	before := s.f.counters()
	ph, wall := s.phase(ctx, d, e.ref)
	after := s.f.counters()
	if !traced {
		s.report(e.rep, ph, wall, before, after, rows)
	} else {
		s.f.on.Store(true)
		tb := s.f.counters()
		tph, twall := s.phase(ctx, d, e.ref)
		ta := s.f.counters()
		s.f.on.Store(false)
		e.rep.attempted += tph.ops
		e.rep.failed += tph.failed
		e.rep.attempted += ph.ops
		e.rep.failed += ph.failed
		e.rep.set("trace.overhead_pct", 100*(ph.reqPerRef()-tph.reqPerRef())/ph.reqPerRef(), "%")
		serveLayers(e.rep, tb, ta, tph)
		// Each node has one worker.
		e.rep.set("experiments.sim_share", tb.delta(ta, runcache.CounterSimNanos)/(float64(twall)*fleetSize), "ratio")
		if err := layerReplays(ctx, e, rec, replayInput{
			cfgs: pool, rows: rows, apps: serveApps, n: serveN, uploads: s.uploads,
			decorated: true,
		}); err != nil {
			return err
		}
		if err := rec.write(filepath.Join(e.workdir, "spans.json")); err != nil {
			return err
		}
	}
	s.checkSimulated(e.rep)
	if e.rep.failed > 0 {
		e.rep.fail("%d of %d operations failed; last: %s", e.rep.failed, e.rep.attempted, s.lastFail)
	}
	return nil
}

// checkSimulated asserts the fleet simulated exactly the pool plus one run
// per miss and per upload: every hit was served from a cache.
func (s *session) checkSimulated(rep *report) {
	want := uint64(len(s.pool) + s.issued)
	if got := s.f.sum(runcache.CounterRunsSimulated); got != want {
		rep.fail("fleet simulated %d runs, want pool %d + misses and uploads %d", got, len(s.pool), s.issued)
	}
}

// report sets serve-mix's end-to-end metrics from one untraced phase.
func (s *session) report(rep *report, ph phaseSamples, wall time.Duration, before, after fleetCounters, rows []*stats.Run) {
	rep.attempted += ph.ops
	rep.failed += ph.failed
	ok := ph.ops - ph.failed
	rep.set("req_per_ref_s", ph.reqPerRef(), "1/ref-s")
	rep.samples["req_per_ref_s"] = len(ph.winReq)
	rep.set("sim_muops_per_ref_s", ph.muopsPerRef(), "Muops/ref-s")
	rep.samples["sim_muops_per_ref_s"] = len(ph.winUops)
	simulated := before.delta(after, runcache.CounterSimUops)
	rep.set("success_ratio", float64(ok)/float64(max(ph.ops, 1)), "ratio")
	rep.samples["success_ratio"] = ph.ops
	ratio, mpki := phastVsTage(s.pool, rows)
	rep.set("phast_ipc_vs_mdptage_pct", ratio, "%")
	rep.set("phast_mdp_mpki", mpki, "1/kuops")
	// Client latencies by class, reported beside the end-to-end metrics
	// (they exist on this workload only).
	for _, l := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"hit_p50_ms", ph.hit, 0.5}, {"hit_p99_ms", ph.hit, 0.99},
		{"miss_p50_ms", ph.miss, 0.5}, {"miss_p95_ms", ph.miss, 0.95},
		{"upload_p50_ms", ph.upload, 0.5},
	} {
		tail := ""
		if !tailOK(len(l.xs), l.q) {
			tail = " (fewer than 10 samples beyond this quantile)"
		}
		rep.note("%s %.4f ms n=%d%s", l.name, quantile(l.xs, l.q), len(l.xs), tail)
	}
	rep.note("%d operations (%d failed, %d misses, %d uploads) in %.2f s wall, %.2f s process CPU (%.1f req/s); fleet simulated %.0f µops",
		ph.ops, ph.failed, ph.missIssued, ph.uploadIssued, wall.Seconds(), ph.cpu.Seconds(), float64(ok)/wall.Seconds(), simulated)
	rep.note("per-window req/ref-s %.0f", ph.winReq)
	rep.note("proxy hop: hit p50 via owner %.4f ms (n=%d), via non-owner %.4f ms (n=%d)",
		median(ph.hitOwner), len(ph.hitOwner), median(ph.hitOther), len(ph.hitOther))
}

// serveLayers sets the serving layers' per-layer metrics from one traced
// phase.
func serveLayers(rep *report, before, after fleetCounters, ph phaseSamples) {
	lat := histDelta(before.h[server.HistLatency], after.h[server.HistLatency])
	qw := histDelta(before.h[server.HistQueueWait], after.h[server.HistQueueWait])
	rep.set("server.latency_p50_ms", 1000*histQuantile(lat, 0.5), "ms")
	rep.samples["server.latency_p50_ms"] = int(lat.Count)
	rep.set("server.queue_wait_p95_ms", 1000*histQuantile(qw, 0.95), "ms")
	rep.samples["server.queue_wait_p95_ms"] = int(qw.Count)
	rep.set("server.coalesced", before.delta(after, server.CounterCoalesced), "count")
	rep.set("server.rejected", before.delta(after, server.CounterRejected), "count")
	reqs := before.delta(after, server.CounterRequests)
	rep.set("cluster.proxied_ratio", before.delta(after, server.CounterProxied)/math.Max(reqs, 1), "ratio")
	rep.set("cluster.proxy_hop_ms", median(ph.hitOther)-median(ph.hitOwner), "ms")
	rep.samples["cluster.proxy_hop_ms"] = len(ph.hitOther) + len(ph.hitOwner)
	lookups := before.delta(after, runcache.CounterMemHits) + before.delta(after, runcache.CounterDiskHits) +
		before.delta(after, runcache.CounterPeerHits) + before.delta(after, runcache.CounterMisses)
	rep.set("runcache.mem_hit_ratio", before.delta(after, runcache.CounterMemHits)/math.Max(lookups, 1), "ratio")
	rep.set("runcache.peer_hits", before.delta(after, runcache.CounterPeerHits), "count")
}

// serveProbe measures the serving layers on a simulator workload's own
// rows: they are written into a fresh fleet's run caches and requested as
// hits by the two clients for d.
func serveProbe(ctx context.Context, e *env, rec *recorder, cfgs []sim.Config, rows []*stats.Run, d time.Duration) error {
	defer installSpanTransport()()
	dir := filepath.Join(e.workdir, "probe")
	defer os.RemoveAll(dir)
	s, err := startSession(ctx, dir, sim.DefaultInstructions, rec, cfgs, rows)
	if err != nil {
		return err
	}
	defer s.f.close()
	s.ops = make([]op, serveOps)
	for i := range s.ops {
		s.ops[i] = op{Kind: opHit, Pool: i % len(cfgs)}
	}
	s.f.on.Store(true)
	before := s.f.counters()
	ph, _ := s.phase(ctx, d, e.ref)
	after := s.f.counters()
	s.f.on.Store(false)
	if ph.failed > 0 {
		e.rep.fail("serve probe: %d of %d hits failed; last: %s", ph.failed, ph.ops, s.lastFail)
	}
	if got := s.f.sum(runcache.CounterRunsSimulated); got != 0 {
		e.rep.fail("serve probe simulated %d runs; every request should hit", got)
	}
	e.rep.attempted += ph.ops
	e.rep.failed += ph.failed
	serveLayers(e.rep, before, after, ph)
	return nil
}
