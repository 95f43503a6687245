package core

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// benchFleetSize reads DIST_BENCH_FLEET; the default keeps `make
// bench` tolerable while `make bench-bundle` raises it to the
// 100k-device fan-out measurement.
func benchFleetSize() int {
	if s := os.Getenv("DIST_BENCH_FLEET"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 20000
}

type fanoutWorld struct {
	engine *sim.Engine
	clock  *sim.Clock
	dist   *Distributor
	reg    *telemetry.Registry
	fleet  int
	desire map[string][][]policy.Policy
	revs   map[string]int // revisions published per root
}

// buildFanoutWorld constructs a two-root fleet (half us, half uk) with
// every device enrolled on its own org's root, on an engine with the
// given worker count that runs the bus and the sharded fan-out.
func buildFanoutWorld(b *testing.B, fleet, workers int) *fanoutWorld {
	b.Helper()
	w := &fanoutWorld{clock: sim.NewClock(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)), fleet: fleet,
		desire: map[string][][]policy.Policy{}, revs: map[string]int{}}
	w.reg = telemetry.NewRegistry()
	w.engine = sim.NewEngine(w.clock)
	w.engine.SetParallelism(workers)
	bus := network.NewBus(rand.New(rand.NewSource(1)), network.WithEngine(w.engine))
	collective, err := New(Config{
		Name:       "bench",
		KillSecret: []byte("bench-secret"),
		Bus:        bus,
		Telemetry:  w.reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	usKey := bundle.HMACKey{ID: "us-root", Secret: []byte("us bench secret")}
	ukKey := bundle.HMACKey{ID: "uk-root", Secret: []byte("uk bench secret")}
	w.dist, err = NewDistributor(DistributorConfig{
		Collective: collective,
		Roots: []RootConfig{
			{Org: "us", Signer: usKey},
			{Org: "uk", Signer: ukKey},
		},
		Telemetry: w.reg,
		Clock:     w.clock.Now,
	})
	if err != nil {
		b.Fatal(err)
	}
	ring := bundle.NewKeyRing().
		Add(usKey.ID, usKey, bundle.Scope{Org: "us"}).
		Add(ukKey.ID, ukKey, bundle.Scope{Org: "uk"})
	schema, err := statespace.NewSchema(statespace.Var("heat", 0, 100))
	if err != nil {
		b.Fatal(err)
	}
	initial, err := schema.StateFromMap(map[string]float64{"heat": 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < fleet; i++ {
		org := "us"
		if i%2 == 1 {
			org = "uk"
		}
		id := fmt.Sprintf("%s-%06d", org, i)
		d, err := device.New(device.Config{
			ID: id, Type: "drone", Organization: org,
			Initial:    initial,
			KillSwitch: collective.KillSwitch(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := collective.AddDevice(d, nil); err != nil {
			b.Fatal(err)
		}
		if err := w.dist.EnrollRoots(id, ring, org); err != nil {
			b.Fatal(err)
		}
	}
	// Two alternating policy sets per org so every revision carries a
	// real (non-empty) delta; compiled once, outside the timed loop.
	for _, org := range []string{"us", "uk"} {
		for _, tag := range []string{"alpha", "beta"} {
			var src string
			for i := 0; i < 6; i++ {
				src += fmt.Sprintf(
					"policy %s.bench%02d priority %d:\n    on tick\n    when intensity > 0\n    do adjust target %s category surveillance\n",
					org, i, i+1, tag)
			}
			pols, err := policylang.CompileSource(src, policy.OriginHuman)
			if err != nil {
				b.Fatal(err)
			}
			w.desire[org] = append(w.desire[org], pols)
		}
	}
	return w
}

// publishRoot cuts one root's next revision on the engine and runs it
// until the fan-out and every ack have drained, returning the host
// time from the publish to the last ack.
func (w *fanoutWorld) publishRoot(b *testing.B, org string) time.Duration {
	b.Helper()
	w.revs[org]++
	desired := w.desire[org][w.revs[org]%2]
	var pubErr error
	w.engine.Schedule(0, func() {
		_, pubErr = w.dist.PublishRoot(org, desired)
	})
	start := time.Now()
	if err := w.engine.Run(w.clock.Now().Add(time.Millisecond)); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	if pubErr != nil {
		b.Fatal(pubErr)
	}
	return elapsed
}

// verify fails the benchmark if a run was degenerate: every us-root
// subscriber must have activated every published revision.
func (w *fanoutWorld) verify(b *testing.B) {
	b.Helper()
	if lag := len(w.dist.LaggingRoot("us")); lag != 0 {
		b.Fatalf("%d devices lagging after drain", lag)
	}
	if got := w.reg.CounterTotal("bundle.activated"); got < int64(w.revs["us"])*int64(w.fleet/2) {
		b.Fatalf("activations %d < published %d × %d subscribers", got, w.revs["us"], w.fleet/2)
	}
}

// benchFanout measures one publish fan-out to the us half of the
// fleet, end to end (encode, push, device verify+activate, ack,
// ledger) as sharded batch events at the given worker count. Wire-cache
// hits make the encode cost per distinct acked base, not per device.
func benchFanout(b *testing.B, workers int) {
	w := buildFanoutWorld(b, benchFleetSize(), workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.publishRoot(b, "us")
	}
	b.StopTimer()
	w.verify(b)
}

func BenchmarkDistributorFanout1(b *testing.B) { benchFanout(b, 1) }
func BenchmarkDistributorFanout2(b *testing.B) { benchFanout(b, 2) }
func BenchmarkDistributorFanout4(b *testing.B) { benchFanout(b, 4) }

// fanoutScalingRounds is how many publishes each fleet size takes in
// BenchmarkFanoutScaling, alternating roots, interleaved between sizes.
const fanoutScalingRounds = 16

// BenchmarkFanoutScaling is the measurement behind `make scaling-gate`:
// two idle two-root fleets, 2k and 8k subscribers per root, built in
// one process and published to alternately at two workers. Each
// publish's converge time is divided by the root's subscriber count;
// the reported per-sub-growth is the 8k median over the 2k median. A
// fan-out that costs O(1) per subscriber reads about 1; a per-ack
// O(fleet) scan makes it grow with the fleet.
func BenchmarkFanoutScaling(b *testing.B) {
	const small, large = 2000, 8000 // subscribers per root
	worlds := []*fanoutWorld{buildFanoutWorld(b, 2*small, 2), buildFanoutWorld(b, 2*large, 2)}
	perSub := make([][]float64, len(worlds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < fanoutScalingRounds; r++ {
			org := []string{"us", "uk"}[r%2]
			for k, w := range worlds {
				d := w.publishRoot(b, org)
				perSub[k] = append(perSub[k], float64(d.Nanoseconds())/float64(w.fleet/2))
			}
		}
	}
	b.StopTimer()
	for _, w := range worlds {
		for _, org := range []string{"us", "uk"} {
			if lag := len(w.dist.LaggingRoot(org)); lag != 0 {
				b.Fatalf("%d-device fleet: %d devices lagging root %s", w.fleet, lag, org)
			}
		}
	}
	b.ReportMetric(medianOf(perSub[0]), "ns/sub-2k")
	b.ReportMetric(medianOf(perSub[1]), "ns/sub-8k")
	b.ReportMetric(medianOf(perSub[1])/medianOf(perSub[0]), "per-sub-growth")
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
