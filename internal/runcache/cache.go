package runcache

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Counter names exported to the shared stats.Metrics registry. The split
// lets the paperfigs acceptance check ("second run performs zero new
// simulations") read RunsSimulated directly.
const (
	// CounterMemHits counts requests answered from the in-process map.
	CounterMemHits = "cache.hits.mem"
	// CounterDiskHits counts requests answered from the persistent store.
	CounterDiskHits = "cache.hits.disk"
	// CounterMisses counts requests that had to simulate.
	CounterMisses = "cache.misses"
	// CounterCoalesced counts requests that piggybacked on an identical
	// in-flight request (single-flight sharing).
	CounterCoalesced = "cache.coalesced"
	// CounterDiskWriteErrors counts failed persistent-store writes (the
	// store is best-effort: a failed Put never fails the run, and repeated
	// failures disable persistence — see Store.Put).
	CounterDiskWriteErrors = "runcache.disk.write_errors"
	// CounterDiskCorrupt counts persistent entries dropped as corrupt
	// (unparseable JSON, key mismatch, empty payload) — each reads as a
	// miss and the run is re-simulated.
	CounterDiskCorrupt = "runcache.disk.corrupt"
	// CounterDiskEvicted counts persistent entries removed by the disk-tier
	// garbage collector (Store.SetMaxBytes): oldest-first eviction when the
	// store exceeds its byte cap. An evicted entry is a future miss, never
	// an error.
	CounterDiskEvicted = "runcache.disk.evicted"
	// CounterPeerHits counts requests answered by fetching another fleet
	// member's cached entry (the peer tier, between disk and simulate).
	CounterPeerHits = "runcache.peer.hits"
	// CounterPeerMisses counts peer-tier lookups that found no copy
	// anywhere in the fleet and fell through to simulating.
	CounterPeerMisses = "runcache.peer.misses"
	// CounterPeerErrors counts failed peer fetch attempts (unreachable
	// member, bad response). Errors degrade to simulating locally — they
	// are counted by the fetcher, never surfaced to the run.
	CounterPeerErrors = "runcache.peer.errors"
	// HistPeerFetch is the per-attempt peer fetch latency histogram
	// (seconds), observed by the fetcher for hits and misses alike.
	HistPeerFetch = "runcache.peer.fetch.seconds"
	// CounterRunsSimulated counts simulations actually executed.
	CounterRunsSimulated = "runs.simulated"
	// CounterSimNanos accumulates wall-time spent inside the simulator.
	CounterSimNanos = "sim.walltime.ns"
	// CounterSimUops accumulates committed micro-ops across executed
	// simulations; with CounterSimNanos it yields simulator throughput.
	CounterSimUops = "sim.uops.committed"
	// CounterSimAllocObjs accumulates heap objects allocated while inside
	// the simulator (a process-wide /gc/heap/allocs:objects delta, so
	// concurrent simulations attribute each other's allocations — treat it
	// as an upper bound per run). With CounterRunsSimulated it yields
	// allocations per run, the zero-alloc steady-state health metric.
	CounterSimAllocObjs = "sim.heap.alloc.objs"
)

// heapAllocObjects reads the runtime's cumulative allocated-objects count.
func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// PeerFetchFunc is the peer tier of a clustered cache: given a key it asks
// other fleet members for their cached copy, returning (run, true) on a hit
// and (nil, false) on a miss. Implementations own their failure handling —
// an unreachable peer is reported as a miss (and counted under
// CounterPeerErrors by the fetcher), never as an error, so the run always
// degrades to simulating locally. The context bounds the fetch; a fetch
// must cost strictly less than a simulation or it has no business existing.
type PeerFetchFunc func(ctx context.Context, key string) (*stats.Run, bool)

// Cache layers an in-process memoisation map over an optional persistent
// Store, with single-flight de-duplication so concurrent requests for the
// same key simulate once. Lookup order: memory → disk → peer (when a
// PeerFetchFunc is installed) → simulate. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	mem     map[string]*stats.Run
	disk    *Store // nil = in-memory only
	peer    atomic.Pointer[PeerFetchFunc]
	group   Group
	metrics *stats.Metrics
}

// New builds a cache over disk (nil for in-memory only) reporting to m
// (nil for a private registry). The disk store's own counters are pointed
// at the same registry.
func New(disk *Store, m *stats.Metrics) *Cache {
	if m == nil {
		m = stats.NewMetrics()
	}
	if disk != nil {
		disk.SetMetrics(m)
	}
	c := &Cache{mem: map[string]*stats.Run{}, disk: disk, metrics: m}
	c.group.OnJoin = func() { m.Add(CounterCoalesced, 1) }
	return c
}

// Metrics returns the registry the cache reports to.
func (c *Cache) Metrics() *stats.Metrics { return c.metrics }

// Disk returns the persistent layer (nil if in-memory only).
func (c *Cache) Disk() *Store { return c.disk }

// SetPeerFetch installs (or, with nil, removes) the peer tier consulted
// between the disk layer and simulating. Safe to call concurrently with
// running lookups; in-flight lookups keep the fetcher they loaded.
func (c *Cache) SetPeerFetch(f PeerFetchFunc) {
	if f == nil {
		c.peer.Store(nil)
		return
	}
	c.peer.Store(&f)
}

// Cached returns the run stored under key in the local tiers only (memory,
// then disk, promoting a disk hit to memory), never simulating and never
// asking peers — the lookup this node serves when it is the peer being
// fetched from. Local-tier hit counters are untouched: a peer's traffic is
// not this node's cache performance.
func (c *Cache) Cached(key string) (*stats.Run, bool) {
	if run, ok := c.memGet(key); ok {
		return run, true
	}
	if c.disk != nil {
		if run, ok := c.disk.Get(key); ok {
			c.memPut(key, run)
			return run, true
		}
	}
	return nil, false
}

func (c *Cache) memGet(key string) (*stats.Run, bool) {
	c.mu.Lock()
	run, ok := c.mem[key]
	c.mu.Unlock()
	return run, ok
}

func (c *Cache) memPut(key string, run *stats.Run) {
	c.mu.Lock()
	c.mem[key] = run
	c.mu.Unlock()
}

// Run executes (or recalls) the simulation described by cfg. ctx bounds the
// simulation (cancellation and wall-clock deadline); cache hits are served
// regardless of ctx state.
func (c *Cache) Run(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	return c.GetOrRun(ctx, cfg, func(ctx context.Context) (*stats.Run, error) {
		return sim.RunContext(ctx, cfg)
	})
}

// GetOrRun returns the cached run for cfg, calling simulate on a full miss.
// Concurrent calls for the same key are coalesced into one simulate; errors
// are returned to every waiter but never cached. The flight leader's ctx
// governs simulate; a waiter whose own ctx ends first unblocks with its ctx
// error while the flight continues for the others.
func (c *Cache) GetOrRun(ctx context.Context, cfg sim.Config, simulate func(context.Context) (*stats.Run, error)) (*stats.Run, error) {
	key := Key(cfg)
	if run, ok := c.memGet(key); ok {
		c.metrics.Add(CounterMemHits, 1)
		return run, nil
	}
	return c.group.Do(ctx, key, func() (*stats.Run, error) {
		// Re-check memory: we may have lost the race to a flight that
		// completed between our miss and joining the group.
		if run, ok := c.memGet(key); ok {
			c.metrics.Add(CounterMemHits, 1)
			return run, nil
		}
		if c.disk != nil {
			if run, ok := c.disk.Get(key); ok {
				c.metrics.Add(CounterDiskHits, 1)
				c.memPut(key, run)
				return run, nil
			}
		}
		if fp := c.peer.Load(); fp != nil {
			if run, ok := (*fp)(ctx, key); ok {
				c.metrics.Add(CounterPeerHits, 1)
				// Promote the fetched entry through both local tiers so the
				// next membership change finds it here without re-fetching.
				c.memPut(key, run)
				if c.disk != nil {
					_ = c.disk.Put(key, cfg, run)
				}
				return run, nil
			}
			c.metrics.Add(CounterPeerMisses, 1)
		}
		c.metrics.Add(CounterMisses, 1)
		start := time.Now()
		allocs0 := heapAllocObjects()
		run, err := simulate(ctx)
		if err != nil {
			return nil, err
		}
		c.metrics.Add(CounterRunsSimulated, 1)
		c.metrics.AddDuration(CounterSimNanos, time.Since(start))
		c.metrics.Add(CounterSimUops, run.Committed)
		c.metrics.Add(CounterSimAllocObjs, heapAllocObjects()-allocs0)
		c.memPut(key, run)
		if c.disk != nil {
			// Best-effort: the store logs, counts and degrades internally.
			_ = c.disk.Put(key, cfg, run)
		}
		return run, nil
	})
}
