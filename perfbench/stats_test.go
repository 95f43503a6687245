package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		got  float64
		ok   bool
	}{
		{n: 1000, want: 0.99, got: 0.99, ok: true}, // exactly 10 beyond p99
		{n: 999, want: 0.99, got: 989.0 / 999, ok: true},
		{n: 100, want: 0.99, got: 0.90, ok: true},
		{n: 100, want: 0.90, got: 0.90, ok: true},
		{n: 20, want: 0.90, got: 0.5, ok: true}, // never below the median
		{n: 10, want: 0.90, got: 0.5, ok: false},
	} {
		got, ok := tailLevel(tc.n, tc.want)
		if ok != tc.ok || got != tc.got {
			t.Errorf("tailLevel(%d, %v) = %v, %v; want %v, %v", tc.n, tc.want, got, ok, tc.got, tc.ok)
		}
	}
	// The reported tail sample has exactly ten samples above it.
	for _, n := range []int{11, 57, 100, 1000, 4321} {
		d := &dist{}
		for i := 0; i < n; i++ {
			d.add(float64(i))
		}
		level, _ := tailLevel(n, 0.999)
		v := quantile(d.sorted(), level)
		if n >= 20 {
			if beyond := n - 1 - int(v); beyond != minBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, minBeyond)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.25: 1, 0.5: 2, 0.51: 3, 1: 4} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestMetricCharset(t *testing.T) {
	for _, bad := range []metricDef{
		{"_lead", "ms"}, {"has space", "ms"}, {strings.Repeat("a", 65), "ms"},
		{"ok", ""}, {"ok", "milliseconds-x-yz"}, {"ok", "m s"},
	} {
		if checkMetricDef(bad) == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := checkMetricDef(m); err != nil {
			t.Error(err)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// The manifest at the repository root must describe exactly what the
// program reports.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: manifest %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestSamplerConcurrentRecord(t *testing.T) {
	s := newSampler(100)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.record(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := s.calls.Load(); got != 200 {
		t.Fatalf("calls = %d, want 200", got)
	}
	if got := time.Duration(s.busy.Load()); got != 200*time.Microsecond {
		t.Fatalf("busy = %v", got)
	}
	if d := s.dist(time.Microsecond); d.n() != 100 || d.p50() != 1 {
		t.Fatalf("kept %d samples, p50 %v", d.n(), d.p50())
	}
}
