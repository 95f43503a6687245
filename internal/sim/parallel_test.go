package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/audit"
)

// scenarioResult captures everything a differential run compares: the
// full audit chain (hashes included, so "equal" means byte-identical)
// and the per-shard work tallies.
type scenarioResult struct {
	entries []audit.Entry
	tally   []int
}

// runScenario drives one deterministic workload on a fresh engine: a
// fleet of sharded periodic loops that append audit entries through
// their lanes, stage same-time and future re-schedules, and interleave
// with unkeyed barrier events — the full surface the parallel merge
// must keep in serial order. All randomness is drawn at setup time from
// the seed; callbacks themselves are deterministic.
func runScenario(t *testing.T, seed int64, workers int) scenarioResult {
	t.Helper()
	clock := NewClock(t0)
	e := NewEngine(clock)
	e.SetParallelism(workers)
	log := audit.New(audit.WithClock(clock.Now))
	rng := rand.New(rand.NewSource(seed))

	const shards = 8
	tally := make([]int, shards) // distinct indexes per shard: race-free
	ticksFor := make([]int, shards)
	extraEvery := make([]int, shards)
	for s := 0; s < shards; s++ {
		ticksFor[s] = 5 + rng.Intn(10)
		extraEvery[s] = 2 + rng.Intn(3)
	}

	for s := 0; s < shards; s++ {
		s := s
		shard := fmt.Sprintf("dev-%d", s)
		tick := 0
		e.ScheduleEveryShard(time.Second, shard,
			func() bool { return tick < ticksFor[s] },
			func(lane *Lane) {
				tick++
				tally[s]++
				audit.Resolve(lane, log).Append(audit.KindAction, shard,
					fmt.Sprintf("tick %d", tick), map[string]string{"n": fmt.Sprint(tick)})
				if tick%extraEvery[s] == 0 {
					// Same-time keyed follow-up: the engine must re-drain
					// the timestamp and keep it after this event.
					lane.ScheduleShard(0, shard, func(inner *Lane) {
						tally[s]++
						audit.Resolve(inner, log).Append(audit.KindNote, shard,
							fmt.Sprintf("echo %d", tick), nil)
					})
				}
				if tick == ticksFor[s] {
					// Future unkeyed follow-up staged from a shard.
					lane.Schedule(500*time.Millisecond, func() {
						log.Append(audit.KindCheckpoint, shard, "done", nil)
					})
				}
			})
	}

	// Barrier events interleaved between tick timestamps, with a nested
	// schedule to cover re-entrancy from serial segments.
	for i := 1; i <= 4; i++ {
		i := i
		e.Schedule(time.Duration(i)*2*time.Second+250*time.Millisecond, func() {
			log.Append(audit.KindNote, "sweeper", fmt.Sprintf("sweep %d", i), nil)
			e.Schedule(100*time.Millisecond, func() {
				log.Append(audit.KindNote, "sweeper", fmt.Sprintf("post-sweep %d", i), nil)
			})
		})
	}

	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	if err := log.Verify(); err != nil {
		t.Fatalf("audit chain broken (workers=%d): %v", workers, err)
	}
	return scenarioResult{entries: log.Entries(), tally: tally}
}

// TestParallelDeterminism is the differential gate: for several seeds,
// a parallel run at any worker count must produce a byte-identical
// audit journal (same entries, same hash chain) and identical work
// tallies as the serial run.
func TestParallelDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		serial := runScenario(t, seed, 1)
		if len(serial.entries) == 0 {
			t.Fatalf("seed %d: serial run produced no entries", seed)
		}
		for _, workers := range []int{2, 4, 8} {
			got := runScenario(t, seed, workers)
			if !reflect.DeepEqual(serial.tally, got.tally) {
				t.Errorf("seed %d workers %d: tally = %v, want %v",
					seed, workers, got.tally, serial.tally)
			}
			if !reflect.DeepEqual(serial.entries, got.entries) {
				for i := range serial.entries {
					if i >= len(got.entries) || !reflect.DeepEqual(serial.entries[i], got.entries[i]) {
						t.Errorf("seed %d workers %d: journals diverge at entry %d", seed, workers, i)
						break
					}
				}
				t.Fatalf("seed %d workers %d: journal not byte-identical (%d vs %d entries)",
					seed, workers, len(got.entries), len(serial.entries))
			}
		}
	}
}

// TestLaneDirectAndNil checks the pass-through modes: a serial (direct)
// lane must behave exactly like calling the engine and log directly,
// and a nil base log stays nil through any lane.
func TestLaneDirectAndNil(t *testing.T) {
	clock := NewClock(t0)
	e := NewEngine(clock)
	log := audit.New(audit.WithClock(clock.Now))

	ran := 0
	e.ScheduleShard(time.Second, "d1", func(lane *Lane) {
		if got := lane.Route(log); got != log {
			t.Error("direct lane did not pass the log through")
		}
		if got := audit.Resolve(lane, nil); got != nil {
			t.Error("nil base log must stay nil through a lane")
		}
		lane.Schedule(time.Second, func() { ran++ })
		lane.ScheduleShard(time.Second, "d1", func(*Lane) { ran++ })
	})
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
}

// TestParallelPanicPropagates ensures a panicking sharded callback
// fails the run loudly instead of deadlocking the pool.
func TestParallelPanicPropagates(t *testing.T) {
	e := NewEngine(NewClock(t0))
	e.SetParallelism(4)
	for i := 0; i < 4; i++ {
		shard := fmt.Sprintf("d%d", i)
		boom := i == 2
		e.ScheduleShard(time.Second, shard, func(*Lane) {
			if boom {
				panic("kaboom")
			}
		})
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("panic did not propagate")
		}
	}()
	_ = e.Run(t0.Add(time.Minute))
}

// TestParallelStopMidBatch verifies Stop between barrier events of one
// batch requeues the rest, keeping Pending accurate.
func TestParallelStopMidBatch(t *testing.T) {
	e := NewEngine(NewClock(t0))
	e.SetParallelism(2)
	ran := 0
	e.Schedule(time.Second, func() { ran++; e.Stop() })
	e.Schedule(time.Second, func() { ran++ })
	e.ScheduleShard(time.Second, "d1", func(*Lane) { ran++ })
	err := e.Run(t0.Add(time.Minute))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2 requeued", e.Pending())
	}
	// The stop was consumed; a second Run drains the remainder.
	if err := e.Run(t0.Add(time.Minute)); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if ran != 3 {
		t.Errorf("after second Run ran = %d, want 3", ran)
	}
}

// TestSetParallelismClamp covers the accessor pair.
func TestSetParallelismClamp(t *testing.T) {
	e := NewEngine(NewClock(t0))
	if e.Parallelism() != 0 {
		t.Errorf("default Parallelism = %d", e.Parallelism())
	}
	e.SetParallelism(-3)
	if e.Parallelism() != 0 {
		t.Errorf("negative clamped to %d", e.Parallelism())
	}
	e.SetParallelism(4)
	if e.Parallelism() != 4 {
		t.Errorf("Parallelism = %d", e.Parallelism())
	}
}
