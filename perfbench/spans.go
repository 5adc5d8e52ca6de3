package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/histutil"
	"repro/internal/mdp"
)

// span is one recorded interval. Times are nanoseconds since the recorder
// started. An aggregate span (Count > 0) stands for Count calls of one
// method inside its parent and carries their summed duration in Total
// instead of an interval: per-call spans for millions of predictor calls
// would cost more than the calls.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"` // operation id shared by all spans of one operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Total  int64  `json:"total_ns,omitempty"`
}

func (s span) dur() int64 {
	if s.Count > 0 {
		return s.Total
	}
	return s.End - s.Start
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span; call end on the result.
func (r *recorder) begin(name string, parent, op int64) *openSpan {
	return &openSpan{r: r, s: span{ID: r.next.Add(1), Parent: parent, Op: op, Name: name, Start: r.now()}}
}

// aggregate records count calls of name totalling total inside parent.
func (r *recorder) aggregate(name string, parent, op, count, total int64) {
	if count == 0 {
		return
	}
	r.add(span{ID: r.next.Add(1), Parent: parent, Op: op, Name: name, Count: count, Total: total})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type openSpan struct {
	r *recorder
	s span
}

func (o *openSpan) id() int64 { return o.s.ID }

func (o *openSpan) end() span {
	o.s.End = o.r.now()
	o.r.add(o.s)
	return o.s
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanTotals sums, per span name, the duration and the self time — the
// duration minus the part of it that children cover. Interval children
// cover the union of their intervals (clipped to the parent); aggregate
// children cover their summed totals.
type spanTotal struct {
	Count    int64
	Duration int64
	Self     int64
}

func spanTotals(spans []span) map[string]*spanTotal {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*spanTotal{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		if s.Count > 0 {
			t.Count += s.Count
		} else {
			t.Count++
		}
		t.Duration += s.dur()
		t.Self += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

func covered(parent span, children []span) int64 {
	var agg int64
	var ivs [][2]int64
	for _, c := range children {
		if c.Count > 0 {
			agg += c.Total
			continue
		}
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var union, curLo, curHi int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > curHi {
			union += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	union += curHi - curLo
	return min(union+agg, parent.dur())
}

// Operation and parent span ids travel in the context within a process and
// in these headers across the fleet's loopback hops.
type ctxKey struct{}

type spanCtx struct{ op, parent int64 }

func withSpan(ctx context.Context, op, parent int64) context.Context {
	return context.WithValue(ctx, ctxKey{}, spanCtx{op, parent})
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	return sc
}

// Predictor methods timed by timedPredictor.
const (
	mPredict = iota
	mStoreDispatch
	mStoreCommit
	mTrainViolation
	mTrainCommit
	nMethods
)

var methodNames = [nMethods]string{
	"mdp.Predict", "mdp.StoreDispatch", "mdp.StoreCommit", "mdp.TrainViolation", "mdp.TrainCommit",
}

// timedPredictor decorates an mdp.Predictor with per-method call counts and
// summed durations. It changes no behaviour: every call is forwarded, and
// so is the optional NeedsOracle capability pipeline.New checks for.
type timedPredictor struct {
	mdp.Predictor
	calls [nMethods]int64
	ns    [nMethods]int64
}

func (t *timedPredictor) NeedsOracle() bool {
	no, ok := t.Predictor.(interface{ NeedsOracle() bool })
	return ok && no.NeedsOracle()
}

func (t *timedPredictor) tick(m int, start time.Time) {
	t.calls[m]++
	t.ns[m] += int64(time.Since(start))
}

func (t *timedPredictor) Predict(ld mdp.LoadInfo, hist *histutil.Reg) mdp.Prediction {
	start := time.Now()
	p := t.Predictor.Predict(ld, hist)
	t.tick(mPredict, start)
	return p
}

func (t *timedPredictor) StoreDispatch(st mdp.StoreInfo) uint64 {
	start := time.Now()
	seq := t.Predictor.StoreDispatch(st)
	t.tick(mStoreDispatch, start)
	return seq
}

func (t *timedPredictor) StoreCommit(st mdp.StoreInfo) {
	start := time.Now()
	t.Predictor.StoreCommit(st)
	t.tick(mStoreCommit, start)
}

func (t *timedPredictor) TrainViolation(ld mdp.LoadInfo, st mdp.StoreInfo, dist int, out mdp.Outcome, hist *histutil.Reg) {
	start := time.Now()
	t.Predictor.TrainViolation(ld, st, dist, out, hist)
	t.tick(mTrainViolation, start)
}

func (t *timedPredictor) TrainCommit(ld mdp.LoadInfo, out mdp.Outcome, hist *histutil.Reg) {
	start := time.Now()
	t.Predictor.TrainCommit(ld, out, hist)
	t.tick(mTrainCommit, start)
}

// flush records one aggregate span per method under parent and resets the
// counts, so one decorator can serve successive runs.
func (t *timedPredictor) flush(r *recorder, parent, op int64) {
	for m := range t.calls {
		r.aggregate(methodNames[m], parent, op, t.calls[m], t.ns[m])
	}
	t.calls, t.ns = [nMethods]int64{}, [nMethods]int64{}
}
