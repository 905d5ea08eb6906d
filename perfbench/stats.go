package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of v (0 when empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// statWindows is the number of windows an untraced run's timings are
// split into.
const statWindows = 10

// windows splits a phase into runs of consecutive ops: window j holds the
// ops that started in [bounds[j], bounds[j+1]), and all but the last hold
// the same number of ops.
type windows struct{ bounds []int64 }

// splitWindows cuts the ops starting at opAt into k windows (fewer when
// there are fewer ops); the last window ends at end.
func splitWindows(opAt []int64, end int64, k int) windows {
	at := append([]int64(nil), opAt...)
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	k = min(k, len(at))
	if k == 0 {
		return windows{}
	}
	m := len(at) / k
	bounds := make([]int64, 0, k+1)
	for j := 0; j < k; j++ {
		bounds = append(bounds, at[j*m])
	}
	return windows{bounds: append(bounds, max(end, at[len(at)-1]+1))}
}

// of returns the window a sample stamped t belongs to, or -1.
func (w windows) of(t int64) int {
	n := len(w.bounds) - 1
	j := sort.Search(n+1, func(i int) bool { return w.bounds[i] > t }) - 1
	if j < 0 || j >= n {
		return -1
	}
	return j
}

// rate is the median over the windows of each window's ops per second.
func (w windows) rate(opAt []int64) float64 {
	if len(w.bounds) < 2 {
		return 0
	}
	counts := make([]float64, len(w.bounds)-1)
	for _, t := range opAt {
		if j := w.of(t); j >= 0 {
			counts[j]++
		}
	}
	rates := make([]float64, len(counts))
	for j, c := range counts {
		rates[j] = c / (float64(w.bounds[j+1]-w.bounds[j]) / 1e9)
	}
	return quantile(rates, 0.5)
}

// quantile is the median over the windows of each window's q-quantile of
// the samples v, sample i stamped at[i]; windows without samples are left
// out.
func (w windows) quantile(v []float64, at []int64, q float64) float64 {
	if len(w.bounds) < 2 {
		return 0
	}
	groups := make([][]float64, len(w.bounds)-1)
	for i, t := range at {
		if j := w.of(t); j >= 0 {
			groups[j] = append(groups[j], v[i])
		}
	}
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, quantile(g, q))
		}
	}
	return quantile(per, 0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procSnap is the Go process's own counters at one instant.
type procSnap struct {
	cpu      time.Duration // user + system
	allocs   uint64        // heap objects allocated
	gcCPU    float64       // runtime estimate of GC CPU seconds
	totalCPU float64       // runtime estimate of all CPU seconds
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(s)
	return procSnap{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// goroutineSampler tracks the peak goroutine count while it runs.
type goroutineSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int
}

func sampleGoroutines() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{}), peak: runtime.NumGoroutine()}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.peak = max(g.peak, runtime.NumGoroutine())
			}
		}
	}()
	return g
}

func (g *goroutineSampler) done() int {
	close(g.stop)
	g.wg.Wait()
	return max(g.peak, runtime.NumGoroutine())
}

// procStatusMB reads one kB field of /proc/self/status, such as "VmRSS:"
// or "VmHWM:", in MiB.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
