package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail backed by fewer than ten samples is noise.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// values: the smallest sample with at least a q share of the samples
// at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	// The epsilon keeps q = k/n from rounding up past rank k.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailLevel is the percentile a tail of n samples may be reported at:
// the wanted level, lowered to the highest one that still leaves
// minBeyond samples above it. It is never below the median, and ok is
// false when n is too small for any tail at all.
func tailLevel(n int, want float64) (level float64, ok bool) {
	if n <= minBeyond {
		return 0.5, false
	}
	rule := float64(n-minBeyond) / float64(n)
	level = math.Min(want, rule)
	if level < 0.5 {
		level = 0.5
	}
	return level, true
}

// dist is a set of timing samples summarized by median and tail.
type dist struct{ v []float64 }

func (d *dist) add(x float64) { d.v = append(d.v, x) }

func (d *dist) n() int { return len(d.v) }

func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.v...)
	sort.Float64s(s)
	return s
}

func (d *dist) p50() float64 { return quantile(d.sorted(), 0.5) }

// tail returns the want-quantile, lowered by the tail rule when the
// sample count cannot back it.
func (d *dist) tail(want float64) float64 {
	level, _ := tailLevel(d.n(), want)
	return quantile(d.sorted(), level)
}

// median of a small slice of repetitions.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// sampler records per-call durations from concurrent callers: a
// running count and busy total, plus the first len(buf) durations for
// percentiles. Disabled samplers cost one atomic load per call.
type sampler struct {
	on    atomic.Bool
	calls atomic.Int64
	busy  atomic.Int64
	buf   []atomic.Int64
}

func newSampler(capacity int) *sampler {
	s := &sampler{buf: make([]atomic.Int64, capacity)}
	s.on.Store(true)
	return s
}

func (s *sampler) record(d time.Duration) {
	i := s.calls.Add(1) - 1
	s.busy.Add(int64(d))
	if i < int64(len(s.buf)) {
		s.buf[i].Store(int64(d))
	}
}

// reset clears the counts so a window can be measured on its own.
func (s *sampler) reset() {
	s.calls.Store(0)
	s.busy.Store(0)
}

// dist returns the recorded durations in the given unit.
func (s *sampler) dist(unit time.Duration) *dist {
	n := s.calls.Load()
	if n > int64(len(s.buf)) {
		n = int64(len(s.buf))
	}
	d := &dist{v: make([]float64, 0, n)}
	for i := int64(0); i < n; i++ {
		d.add(float64(s.buf[i].Load()) / float64(unit))
	}
	return d
}

// rtWindow measures the Go runtime across a window: GC share of CPU,
// heap allocations (objects and bytes). The CPU split is the runtime's
// own estimate, so the GC share is approximate over short windows.
type rtWindow struct{ start [4]float64 }

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() (out [4]float64) {
	samples := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

func startRuntime() rtWindow { return rtWindow{start: readRuntime()} }

// rtDelta is what the runtime did during a window.
type rtDelta struct {
	gcCPU, totalCPU, allocs, bytes float64
}

func (w rtWindow) stop() rtDelta {
	end := readRuntime()
	return rtDelta{
		gcCPU:    end[0] - w.start[0],
		totalCPU: end[1] - w.start[1],
		allocs:   end[2] - w.start[2],
		bytes:    end[3] - w.start[3],
	}
}

func (d *rtDelta) addTo(o rtDelta) {
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
	d.allocs += o.allocs
	d.bytes += o.bytes
}

func (d rtDelta) gcFrac() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// liveHeapMB forces a collection and reports the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// Metric names and units follow the benchmark manifest's charset.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkMetricDef(m metricDef) error {
	if !nameRE.MatchString(m.Name) {
		return fmt.Errorf("metric name %q outside the charset", m.Name)
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: unit %q outside the charset", m.Name, m.Unit)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// A dist travels between the generator and server processes as a JSON
// array of its samples.
func (d dist) MarshalJSON() ([]byte, error) { return json.Marshal(d.v) }

func (d *dist) UnmarshalJSON(b []byte) error { return json.Unmarshal(b, &d.v) }
