package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

func TestClock(t *testing.T) {
	c := NewClock(t0)
	if !c.Now().Equal(t0) {
		t.Errorf("Now = %v", c.Now())
	}
	c.Advance(time.Minute)
	if !c.Now().Equal(t0.Add(time.Minute)) {
		t.Errorf("after Advance: %v", c.Now())
	}
	c.Advance(-time.Hour)
	if !c.Now().Equal(t0.Add(time.Minute)) {
		t.Error("negative Advance moved the clock")
	}
	c.AdvanceTo(t0) // in the past: no-op
	if !c.Now().Equal(t0.Add(time.Minute)) {
		t.Error("AdvanceTo moved the clock backwards")
	}
	c.AdvanceTo(t0.Add(time.Hour))
	if !c.Now().Equal(t0.Add(time.Hour)) {
		t.Errorf("AdvanceTo: %v", c.Now())
	}
}

func TestEngineOrdering(t *testing.T) {
	c := NewClock(t0)
	e := NewEngine(c)
	var order []string
	e.Schedule(2*time.Second, func() { order = append(order, "b") })
	e.Schedule(time.Second, func() { order = append(order, "a") })
	e.Schedule(2*time.Second, func() { order = append(order, "c") }) // FIFO at same time
	if e.Pending() != 3 {
		t.Errorf("Pending = %d", e.Pending())
	}
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Errorf("order = %q, want abc", got)
	}
	if !c.Now().Equal(t0.Add(2 * time.Second)) {
		t.Errorf("clock = %v", c.Now())
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine(NewClock(t0))
	ran := false
	e.Schedule(time.Hour, func() { ran = true })
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("event beyond horizon ran")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(NewClock(t0))
	count := 0
	e.Schedule(time.Second, func() { count++; e.Stop() })
	e.Schedule(2*time.Second, func() { count++ })
	err := e.Run(t0.Add(time.Minute))
	if !errors.Is(err, ErrStopped) {
		t.Errorf("Run = %v, want ErrStopped", err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

func TestEngineStopBeforeRun(t *testing.T) {
	// Regression: Stop called before Run used to be silently discarded
	// (Run reset the flag on entry). A pre-Run Stop must cancel the next
	// run — and only that one.
	e := NewEngine(NewClock(t0))
	ran := false
	e.Schedule(time.Second, func() { ran = true })
	e.Stop()
	if err := e.Run(t0.Add(time.Minute)); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run after pre-Run Stop = %v, want ErrStopped", err)
	}
	if ran {
		t.Error("event ran despite pre-Run Stop")
	}
	// The stop was consumed: the next Run proceeds normally.
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !ran {
		t.Error("event did not run after the stop was consumed")
	}
}

func TestEngineNegativeDelayAndNested(t *testing.T) {
	e := NewEngine(NewClock(t0))
	var order []string
	e.Schedule(time.Second, func() {
		order = append(order, "outer")
		e.Schedule(-time.Hour, func() { order = append(order, "inner") })
	})
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if strings.Join(order, ",") != "outer,inner" {
		t.Errorf("order = %v", order)
	}
}

// TestEngineRunUntilIdle checks RunUntilIdle drains chained events
// however far apart they lie, and leaves nothing queued.
func TestEngineRunUntilIdle(t *testing.T) {
	e := NewEngine(NewClock(t0))
	var order []int
	e.Schedule(time.Hour, func() {
		order = append(order, 1)
		e.Schedule(24*365*time.Hour, func() { order = append(order, 2) })
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(order) != 2 || e.Pending() != 0 {
		t.Errorf("ran %v with %d pending, want [1 2] and none", order, e.Pending())
	}
}

func TestScheduleEvery(t *testing.T) {
	e := NewEngine(NewClock(t0))
	count := 0
	e.ScheduleEvery(time.Second, func() bool { return count < 3 }, func() { count++ })
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	e.ScheduleEvery(0, nil, func() { count++ })
	if e.Pending() != 0 {
		t.Error("non-positive interval scheduled")
	}
	e.ScheduleEvery(-time.Second, nil, func() { count++ })
	if e.Pending() != 0 {
		t.Error("negative interval scheduled")
	}
}

func TestScheduleEveryPredicateFlipsBeforeFirstFire(t *testing.T) {
	// The predicate is checked at fire time, not schedule time: flipping
	// it false after scheduling but before the first tick means the
	// callback never runs.
	e := NewEngine(NewClock(t0))
	ok := true
	count := 0
	e.ScheduleEvery(time.Second, func() bool { return ok }, func() { count++ })
	ok = false
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 0 {
		t.Errorf("count = %d, want 0 (predicate flipped before first fire)", count)
	}
	if e.Pending() != 0 {
		t.Errorf("dead loop left %d events queued", e.Pending())
	}
}

func TestScheduleEveryReentrantSchedule(t *testing.T) {
	// A periodic callback may schedule more work re-entrantly; the extra
	// events interleave with later ticks in timestamp order.
	e := NewEngine(NewClock(t0))
	var order []string
	ticks := 0
	e.ScheduleEvery(2*time.Second, func() bool { return ticks < 2 }, func() {
		ticks++
		n := ticks
		order = append(order, fmt.Sprintf("tick%d", n))
		e.Schedule(time.Second, func() { order = append(order, fmt.Sprintf("extra%d", n)) })
	})
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "tick1,extra1,tick2,extra2"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics()
	m.Inc("harm", 2)
	m.Inc("harm", 1)
	m.SetGauge("rate", 0.5)
	if m.Counter("harm") != 3 {
		t.Errorf("Counter = %d", m.Counter("harm"))
	}
	if m.Gauge("rate") != 0.5 {
		t.Errorf("Gauge = %g", m.Gauge("rate"))
	}
	counters, gauges := m.Snapshot()
	if counters["harm"] != 3 || gauges["rate"] != 0.5 {
		t.Error("Snapshot wrong")
	}
	if s := m.String(); !strings.Contains(s, "harm=3") || !strings.Contains(s, "rate=0.5") {
		t.Errorf("String = %q", s)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Inc("c", 1)
			}
		}()
	}
	wg.Wait()
	if m.Counter("c") != 400 {
		t.Errorf("concurrent counter = %d", m.Counter("c"))
	}
}

func newTestWorld(t *testing.T, opts ...WorldOption) (*World, *Clock) {
	t.Helper()
	c := NewClock(t0)
	w, err := NewWorld(20, 20, rand.New(rand.NewSource(1)), c, opts...)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w, c
}

func TestNewWorldValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewClock(t0)
	if _, err := NewWorld(0, 5, rng, c); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewWorld(5, 5, nil, c); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewWorld(5, 5, rng, nil); err == nil {
		t.Error("nil clock accepted")
	}
}

func TestWorldAddAndClamp(t *testing.T) {
	w, _ := newTestWorld(t)
	if err := w.AddHuman("h1", Pos{X: -5, Y: 100}, true); err != nil {
		t.Fatalf("AddHuman: %v", err)
	}
	hs := w.Humans()
	if len(hs) != 1 || hs[0].Pos != (Pos{X: 0, Y: 19}) {
		t.Errorf("humans = %+v", hs)
	}
	if err := w.AddHuman("h1", Pos{}, true); err == nil {
		t.Error("duplicate human accepted")
	}
	if err := w.AddHuman("", Pos{}, true); err == nil {
		t.Error("empty human ID accepted")
	}
	if err := w.AddHazard("z1", Pos{X: 3, Y: 3}, HazardHole, 0.8); err != nil {
		t.Fatalf("AddHazard: %v", err)
	}
	if err := w.AddHazard("z1", Pos{}, HazardHole, 1); err == nil {
		t.Error("duplicate hazard accepted")
	}
	if err := w.AddHazard("", Pos{}, HazardHole, 1); err == nil {
		t.Error("empty hazard ID accepted")
	}
	if ww, hh := w.Size(); ww != 20 || hh != 20 {
		t.Errorf("Size = %d,%d", ww, hh)
	}
}

func TestStrikeDirectHarm(t *testing.T) {
	w, _ := newTestWorld(t)
	mustAddHuman(t, w, "near", Pos{X: 5, Y: 5})
	mustAddHuman(t, w, "edge", Pos{X: 6, Y: 6})
	mustAddHuman(t, w, "far", Pos{X: 15, Y: 15})

	n := w.Strike(Pos{X: 5, Y: 5}, 1, 1.0, "device-1:fire")
	if n != 2 {
		t.Errorf("Strike harmed %d, want 2", n)
	}
	direct, indirect := w.HarmCounts()
	if direct != 2 || indirect != 0 {
		t.Errorf("HarmCounts = %d,%d", direct, indirect)
	}
	// Already-harmed humans are not harmed again.
	if n := w.Strike(Pos{X: 5, Y: 5}, 1, 1.0, "again"); n != 0 {
		t.Errorf("second Strike harmed %d", n)
	}
	for _, h := range w.Harms() {
		if !h.Direct || h.Cause != "device-1:fire" {
			t.Errorf("harm = %+v", h)
		}
	}
}

func TestHumansWithin(t *testing.T) {
	w, _ := newTestWorld(t)
	mustAddHuman(t, w, "a", Pos{X: 5, Y: 5})
	mustAddHuman(t, w, "b", Pos{X: 8, Y: 5})
	got := w.HumansWithin(Pos{X: 5, Y: 5}, 2)
	if len(got) != 1 || got[0] != "a" {
		t.Errorf("HumansWithin = %v", got)
	}
	w.Strike(Pos{X: 5, Y: 5}, 0, 1, "x")
	if got := w.HumansWithin(Pos{X: 5, Y: 5}, 2); len(got) != 0 {
		t.Errorf("harmed human still reported: %v", got)
	}
}

func TestUnmarkedHazardHarmsWanderer(t *testing.T) {
	w, _ := newTestWorld(t)
	// Stationary human standing on the hazard cell: harmed on first step.
	mustAddHumanStationary(t, w, "victim", Pos{X: 4, Y: 4})
	if err := w.AddHazard("hole", Pos{X: 4, Y: 4}, HazardHole, 0.7); err != nil {
		t.Fatalf("AddHazard: %v", err)
	}
	w.StepHumans()
	direct, indirect := w.HarmCounts()
	if direct != 0 || indirect != 1 {
		t.Errorf("HarmCounts = %d,%d, want 0,1", direct, indirect)
	}
	harms := w.Harms()
	if harms[0].Cause != "hole:hole" || harms[0].Direct {
		t.Errorf("harm = %+v", harms[0])
	}
	// Harmed humans are not harmed twice.
	w.StepHumans()
	if _, indirect := w.HarmCounts(); indirect != 1 {
		t.Error("human harmed twice")
	}
}

func TestMarkedHazardMostlyAvoided(t *testing.T) {
	w, _ := newTestWorld(t, WithMarkedAvoidProbability(1.0))
	mustAddHumanStationary(t, w, "careful", Pos{X: 4, Y: 4})
	if err := w.AddHazard("hole", Pos{X: 4, Y: 4}, HazardHole, 0.7); err != nil {
		t.Fatalf("AddHazard: %v", err)
	}
	if !w.MarkHazard("hole") {
		t.Fatal("MarkHazard failed")
	}
	for i := 0; i < 50; i++ {
		w.StepHumans()
	}
	if _, indirect := w.HarmCounts(); indirect != 0 {
		t.Errorf("marked hazard harmed human %d times with avoid prob 1", indirect)
	}
	if w.MarkHazard("missing") {
		t.Error("MarkHazard on missing hazard returned true")
	}
}

func TestRemoveHazard(t *testing.T) {
	w, _ := newTestWorld(t)
	if err := w.AddHazard("hole", Pos{X: 1, Y: 1}, HazardHole, 1); err != nil {
		t.Fatalf("AddHazard: %v", err)
	}
	if !w.RemoveHazard("hole") || w.RemoveHazard("hole") {
		t.Error("RemoveHazard semantics wrong")
	}
	if len(w.Hazards()) != 0 {
		t.Error("hazard still present")
	}
}

func TestStepHumansDeterministic(t *testing.T) {
	run := func() []Human {
		c := NewClock(t0)
		w, err := NewWorld(20, 20, rand.New(rand.NewSource(7)), c)
		if err != nil {
			t.Fatalf("NewWorld: %v", err)
		}
		mustAddHuman(t, w, "a", Pos{X: 10, Y: 10})
		mustAddHuman(t, w, "b", Pos{X: 3, Y: 3})
		for i := 0; i < 20; i++ {
			w.StepHumans()
		}
		return w.Humans()
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("nondeterministic walk: %+v vs %+v", first[i], second[i])
		}
	}
}

func mustAddHuman(t *testing.T, w *World, id string, pos Pos) {
	t.Helper()
	if err := w.AddHuman(id, pos, false); err != nil {
		t.Fatalf("AddHuman(%s): %v", id, err)
	}
}

func mustAddHumanStationary(t *testing.T, w *World, id string, pos Pos) {
	t.Helper()
	if err := w.AddHuman(id, pos, true); err != nil {
		t.Fatalf("AddHuman(%s): %v", id, err)
	}
}

func TestPosHelpers(t *testing.T) {
	if (Pos{X: 0, Y: 0}).Dist(Pos{X: 3, Y: -4}) != 4 {
		t.Error("Chebyshev distance wrong")
	}
	if (Pos{X: 1, Y: 2}).String() != "(1,2)" {
		t.Error("Pos.String wrong")
	}
}
