package runcache

import (
	"context"
	"errors"
	"sync"

	"repro/internal/stats"
)

// ErrFlightPanicked is what waiters receive when the flight leader's fn
// panicked: the panic propagates on the leader's goroutine (and is recovered
// into a typed error at the sim layer), while waiters get this sentinel
// instead of blocking forever.
var ErrFlightPanicked = errors.New("runcache: in-flight simulation panicked")

// call is one in-flight simulation shared by every waiter on its key.
type call struct {
	done chan struct{} // closed when run/err are final
	run  *stats.Run
	err  error
}

// Group de-duplicates concurrent work by key: while one goroutine executes
// fn for a key, every other goroutine asking for the same key blocks and
// receives the first execution's result instead of re-running fn. The zero
// Group is ready to use.
type Group struct {
	// OnJoin, when set, is called each time a caller joins another caller's
	// flight, at join time (before it waits), so coalescing is observable
	// while the flight is still running.
	OnJoin func()

	mu sync.Mutex
	m  map[string]*call
}

// Do executes fn once per key among concurrent callers; the others receive
// its result. A waiter whose ctx ends before the flight completes returns
// its ctx error immediately — the flight itself keeps running under the
// leader (whose own context governs fn). Results are not retained after the
// flight completes — pair a Group with a cache for memoisation across time,
// not just across concurrency.
func (g *Group) Do(ctx context.Context, key string, fn func() (*stats.Run, error)) (*stats.Run, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*call{}
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		if g.OnJoin != nil {
			g.OnJoin()
		}
		select {
		case <-c.done:
			return c.run, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// The flight must resolve even if fn panics (the panic re-propagates on
	// this goroutine; waiters get ErrFlightPanicked rather than a hang).
	finished := false
	defer func() {
		if !finished {
			c.run, c.err = nil, ErrFlightPanicked
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.run, c.err = fn()
	finished = true
	return c.run, c.err
}
