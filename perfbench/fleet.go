package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/runcache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// node is one in-process fleet member: a one-worker runner with its own
// disk cache and trace store behind server.New on a loopback listener.
type node struct {
	url    string
	runner *experiments.Runner
	reg    *stats.Metrics
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
}

// fleet is the 3-node phastd cluster the serving workloads run against.
// Health probing is not started, so the ring stays static.
type fleet struct {
	nodes []*node
	ring  *cluster.Ring
	// rec is non-nil in traced runs; on gates recording so one fleet can
	// serve an untraced and a traced phase.
	rec *recorder
	on  atomic.Bool
}

const fleetSize = 3

// Span headers carry the operation and parent span ids across loopback hops.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// startFleet boots the fleet under dir. instructions is the servers' and
// runners' default stream length. seed, when non-nil, is called with each
// node's cache directory before its runner opens it (the serve probe uses
// it to pre-populate run caches).
func startFleet(dir string, instructions int, rec *recorder, seed func(cacheDir string) error) (*fleet, error) {
	f := &fleet{rec: rec}
	lns := make([]net.Listener, fleetSize)
	urls := make([]string, fleetSize)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	f.ring = cluster.NewRing(urls, 0)
	for i, ln := range lns {
		cl, err := cluster.NewFleet(urls[i], urls, 0)
		if err != nil {
			f.closeListeners(lns[i:])
			f.close()
			return nil, err
		}
		base := filepath.Join(dir, "node"+strconv.Itoa(i))
		cacheDir := filepath.Join(base, "cache")
		if seed != nil {
			if err := seed(cacheDir); err != nil {
				f.closeListeners(lns[i:])
				f.close()
				return nil, err
			}
		}
		reg := stats.NewMetrics()
		runner := experiments.NewRunner(experiments.Options{
			Instructions: instructions,
			Workers:      1,
			CacheDir:     cacheDir,
			Metrics:      reg,
			KeepGoing:    true,
		})
		var backend server.Backend = runner
		if rec != nil {
			backend = &tracedBackend{r: runner, f: f}
		}
		srv := server.New(backend, server.Options{
			// One admission slot per runner worker: a second request waits
			// in the admission queue, where its wait is observed.
			MaxInflight:         1,
			DefaultInstructions: instructions,
			Metrics:             reg,
			Fleet:               cl,
			TraceStore:          tracestore.New(filepath.Join(base, "traces"), tracestore.Options{}),
		})
		peerFetch, traceFetch := srv.PeerFetch, srv.TraceFetch
		var handler http.Handler = srv.Handler()
		if rec != nil {
			peerFetch = f.tracedPeerFetch(peerFetch)
			traceFetch = f.tracedTraceFetch(traceFetch)
			handler = f.tracedHandler(handler)
		}
		runner.SetPeerFetch(peerFetch)
		runner.SetTraceResolver(traceFetch)
		n := &node{url: urls[i], runner: runner, reg: reg,
			hs: &http.Server{Handler: handler}, served: make(chan struct{})}
		go func() {
			defer close(n.served)
			_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

func (f *fleet) closeListeners(lns []net.Listener) {
	for _, l := range lns {
		l.Close()
	}
}

// close stops every node and waits for its serve loop to return.
func (f *fleet) close() {
	for _, n := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := n.hs.Shutdown(ctx); err != nil {
			n.hs.Close()
		}
		cancel()
		<-n.served
		n.runner.Close()
	}
	f.nodes = nil
}

// sum is the fleet-wide value of one counter.
func (f *fleet) sum(name string) uint64 {
	var total uint64
	for _, n := range f.nodes {
		total += n.reg.Get(name)
	}
	return total
}

// hist merges one histogram across nodes.
func (f *fleet) hist(name string) stats.HistogramSnapshot {
	var out stats.HistogramSnapshot
	for _, n := range f.nodes {
		h, ok := n.reg.Histograms()[name]
		if !ok {
			continue
		}
		if out.Counts == nil {
			out.Bounds = h.Bounds
			out.Counts = make([]uint64, len(h.Counts))
		}
		for i, c := range h.Counts {
			out.Counts[i] += c
		}
		out.Count += h.Count
		out.Sum += h.Sum
	}
	return out
}

// owns reports whether the node at url owns cfg's cache key.
func (f *fleet) owns(url string, cfg sim.Config) bool {
	return f.ring.Owner(runcache.Key(cfg)) == url
}

// recording reports whether spans are being recorded now.
func (f *fleet) recording() bool { return f.rec != nil && f.on.Load() }

// tracedHandler records one span per request a node serves, parented to
// the span named in the request's headers (the client's, or the proxying
// node's), and hands the span to the request context.
func (f *fleet) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.recording() {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		name := "server.handle"
		if strings.HasPrefix(r.URL.Path, "/v1/peer/") {
			name = "server.handle.peer"
		}
		s := f.rec.begin(name, parent, op)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), op, s.id())))
		s.end()
	})
}

func (f *fleet) tracedPeerFetch(fn runcache.PeerFetchFunc) runcache.PeerFetchFunc {
	return func(ctx context.Context, key string) (*stats.Run, bool) {
		if !f.recording() {
			return fn(ctx, key)
		}
		sc := spanFrom(ctx)
		s := f.rec.begin("server.PeerFetch", sc.parent, sc.op)
		run, ok := fn(withSpan(ctx, sc.op, s.id()), key)
		s.end()
		return run, ok
	}
}

func (f *fleet) tracedTraceFetch(fn experiments.TraceResolver) experiments.TraceResolver {
	return func(ctx context.Context, digest string) (*trace.Trace, error) {
		if !f.recording() {
			return fn(ctx, digest)
		}
		sc := spanFrom(ctx)
		s := f.rec.begin("server.TraceFetch", sc.parent, sc.op)
		tr, err := fn(withSpan(ctx, sc.op, s.id()), digest)
		s.end()
		return tr, err
	}
}

// tracedBackend records spans around the server's calls into its runner.
// It implements every optional capability the server probes for, so the
// server behaves exactly as over the bare runner.
type tracedBackend struct {
	r *experiments.Runner
	f *fleet
}

func (b *tracedBackend) span(ctx context.Context, name string) (context.Context, func()) {
	if !b.f.recording() {
		return ctx, func() {}
	}
	sc := spanFrom(ctx)
	s := b.f.rec.begin(name, sc.parent, sc.op)
	return withSpan(ctx, sc.op, s.id()), func() { s.end() }
}

func (b *tracedBackend) RunConfigContext(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	ctx, end := b.span(ctx, "experiments.RunConfigContext")
	defer end()
	return b.r.RunConfigContext(ctx, cfg)
}

func (b *tracedBackend) RunConfigScheduledContext(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	ctx, end := b.span(ctx, "experiments.RunConfigScheduledContext")
	defer end()
	return b.r.RunConfigScheduledContext(ctx, cfg)
}

func (b *tracedBackend) RunConfigsDetailedContext(ctx context.Context, cfgs []sim.Config) []experiments.Result {
	ctx, end := b.span(ctx, "experiments.RunConfigsDetailedContext")
	defer end()
	return b.r.RunConfigsDetailedContext(ctx, cfgs)
}

func (b *tracedBackend) CachedRun(key string) (*stats.Run, bool) { return b.r.CachedRun(key) }

// spanTransport copies the context's span ids into request headers, so a
// hop's server-side span joins the operation that caused it.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if sc := spanFrom(r.Context()); sc.op != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(hdrOp, strconv.FormatInt(sc.op, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(sc.parent, 10))
	}
	return t.base.RoundTrip(r)
}

// installSpanTransport routes the fleet's own peer hops (which use
// http.DefaultTransport) through spanTransport; the returned func restores
// the default.
func installSpanTransport() (restore func()) {
	orig := http.DefaultTransport
	http.DefaultTransport = spanTransport{orig}
	return func() { http.DefaultTransport = orig }
}

// client is one closed-loop caller of the fleet.
type client struct {
	http *http.Client
}

func newClient(traced bool) *client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: fleetSize}
	if traced {
		rt = spanTransport{rt}
	}
	return &client{http: &http.Client{Transport: rt, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// errStatus is a non-200 reply (a 429 included).
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func (c *client) post(ctx context.Context, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &errStatus{resp.StatusCode, string(data)}
	}
	return data, nil
}

// runRow posts one run and returns the raw bytes of its result row.
func (c *client) runRow(ctx context.Context, url string, cfg sim.Config) (json.RawMessage, error) {
	body, err := json.Marshal(server.RunRequest{Config: cfg})
	if err != nil {
		return nil, err
	}
	data, err := c.post(ctx, url+"/v1/runs", body)
	if err != nil {
		return nil, err
	}
	var res struct {
		Run json.RawMessage `json:"run"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	if len(res.Run) == 0 {
		return nil, errors.New("reply carries no run row")
	}
	return res.Run, nil
}

// upload posts an encoded trace and returns its digest.
func (c *client) upload(ctx context.Context, url string, body []byte) (string, error) {
	data, err := c.post(ctx, url+"/v1/traces", body)
	if err != nil {
		return "", err
	}
	var res server.TraceUploadResponse
	if err := json.Unmarshal(data, &res); err != nil {
		return "", err
	}
	return res.Digest, nil
}

// decodeRun parses a raw result row.
func decodeRun(raw json.RawMessage) (*stats.Run, error) {
	var run stats.Run
	if err := json.Unmarshal(raw, &run); err != nil {
		return nil, err
	}
	return &run, nil
}

// seedCache writes rows into a run-cache directory as if they had been
// simulated there.
func seedCache(cacheDir string, cfgs []sim.Config, rows []*stats.Run) error {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	st := runcache.NewStore(cacheDir)
	for i, cfg := range cfgs {
		if err := st.Put(runcache.Key(cfg), cfg, rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// clientLoop runs nClients closed-loop clients until deadline: each takes
// the next operation index and calls do with its own client and its own
// round-robin node cursor.
func clientLoop(ctx context.Context, nClients int, deadline time.Time, next func() (int, bool),
	do func(c *client, cursor *int, i int), traced bool) {
	var wg sync.WaitGroup
	for k := 0; k < nClients; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(traced)
			defer c.close()
			cursor := k
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i, ok := next()
				if !ok {
					return
				}
				do(c, &cursor, i)
			}
		}()
	}
	wg.Wait()
}
