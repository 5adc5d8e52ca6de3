package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostInfo is the fingerprint recorded with every result: a number is
// only comparable with numbers taken on the same host.
type hostInfo struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	GitSHA     string
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu %q nproc %d gomaxprocs %d %s git %s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GitSHA)
}

// fingerprint describes this host. The git sha comes from PERFBENCH_GIT_SHA
// (set by run.py when the checkout is a git work tree).
func fingerprint() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     os.Getenv("PERFBENCH_GIT_SHA"),
	}
	if h.GitSHA == "" {
		h.GitSHA = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// heapSampler tracks the peak Go heap in use: the largest live heap any
// garbage collection marked, sampled every 5ms. Counting unswept garbage
// too would make the peak depend on when collections happen to run.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: heapInUse()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.peak = max(h.peak, heapInUse())
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return max(h.peak, heapInUse())
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it — the rule for which tail percentiles are reportable.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has used so far, all threads.
func cpuTime() time.Duration { return clock(2) } // CLOCK_PROCESS_CPUTIME_ID

// userTime is the user-mode CPU time the process has used so far. Linux
// splits the process's exact CPU time into user and system time by
// scheduler-tick samples, so over one second the split is good to a few
// percent; the medians over passes and windows absorb that.
func userTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano())
}

// clock reads a Linux CPU-time clock. Unlike getrusage, whose figures
// advance in scheduler ticks, these clocks count nanoseconds.
func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refRate is the speed that defines a reference second (ref-s): the
// reference kernel runs refRate iterations per reference second.
const refRate = 1e8

// refMonitor measures the host's current speed with the reference kernel.
// The gated throughputs and set-up time are expressed in reference seconds:
// user-mode CPU time scaled by how fast this host runs the kernel at that
// moment. On a shared host the speed of a CPU-second itself drifts —
// sim-seq read 0.93 Muops per CPU-second in one hour and 2.26 in the next —
// and it changes from one second to the next. So a goroutine on its own thread runs a
// short kernel chunk every refEvery for the whole run, and each measured
// stretch is scaled by the chunks that ran during it.
type refMonitor struct {
	mu    sync.Mutex
	iters float64       // kernel iterations run so far
	cpu   time.Duration // kernel CPU time so far
	stop  chan struct{}
	done  chan struct{}
}

const (
	refEvery      = 50 * time.Millisecond
	refChunkIters = 1 << 18 // about 2.5 ms: 5% of one CPU
)

func startRefMonitor() *refMonitor {
	m := &refMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				d := refKernel(refChunkIters)
				m.mu.Lock()
				m.iters += refChunkIters
				m.cpu += d
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// close stops the monitor and waits for its goroutine.
func (m *refMonitor) close() {
	close(m.stop)
	<-m.done
}

// refMark is a point in a run: the process's user-mode CPU time and the
// kernel's totals so far.
type refMark struct {
	user, kernel time.Duration
	iters        float64
}

func (m *refMonitor) mark() refMark {
	m.mu.Lock()
	defer m.mu.Unlock()
	return refMark{userTime(), m.cpu, m.iters}
}

// since returns the user-mode CPU time the process used between a and b,
// less the kernel's, in reference seconds: scaled by the speed of the
// kernel chunks that ran in between (by the run's speed so far if none
// did). System time is left out: on serve-mix its share of the process's
// CPU time moved between 13% and 19% from run to run with no code change,
// with the host's load.
func (m *refMonitor) since(a, b refMark) float64 {
	work := (b.user - a.user - (b.kernel - a.kernel)).Seconds()
	if b.iters == a.iters {
		return work * m.speed()
	}
	return work * (b.iters - a.iters) / (b.kernel - a.kernel).Seconds() / refRate
}

// refSeconds runs fn and returns the user-mode CPU time it used in
// reference seconds.
func (m *refMonitor) refSeconds(fn func() error) (float64, error) {
	a := m.mark()
	err := fn()
	return m.since(a, m.mark()), err
}

// speed is the host's speed over the run so far, in reference seconds per
// CPU-second.
func (m *refMonitor) speed() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cpu == 0 {
		return 1
	}
	return m.iters / m.cpu.Seconds() / refRate
}

// refTable is the reference kernel's working set.
var refTable = make([]uint64, 1<<15)

// refKernel runs iters iterations of reference work — branchy, table-heavy
// integer code like the simulator's inner loops, but code no change to the
// repository touches — and returns the CPU time its thread spent.
func refKernel(iters int) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := clock(3)  // CLOCK_THREAD_CPUTIME_ID
	clear(refTable) // every call does the same work
	x := uint64(0x9E3779B97F4A7C15)
	mask := uint64(len(refTable) - 1)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		switch v := refTable[j]; v & 3 {
		case 0:
			refTable[j] = v + x>>40
		case 1:
			refTable[(j+1)&mask] ^= v
		default:
			refTable[j] = v>>1 | x<<62
		}
	}
	return clock(3) - t0
}
