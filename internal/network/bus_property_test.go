package network

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestBusAccountingProperty checks the bus's accounting invariant
// under concurrent senders: every attempted send to a known receiver
// is counted exactly once as delivered or dropped, and duplicates are
// tracked separately without distorting either column.
func TestBusAccountingProperty(t *testing.T) {
	metrics := sim.NewMetrics()
	bus, engine := newEngineBus(rand.New(rand.NewSource(42)),
		WithLoss(0.3), WithDuplication(0.2), WithMetrics(metrics))
	nodes := []string{"a", "b", "c", "d"}
	var handled sync.Map
	for _, id := range nodes {
		id := id
		count := new(int64)
		handled.Store(id, count)
		mu := new(sync.Mutex)
		if err := bus.Attach(id, func(Message) {
			mu.Lock()
			*count++
			mu.Unlock()
		}); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}

	const senders = 8
	const perSender = 250
	var wg sync.WaitGroup
	var okCount, dropCount int64
	var statMu sync.Mutex
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < perSender; i++ {
				to := nodes[rng.Intn(len(nodes))]
				err := bus.Send(Message{From: "sender", To: to, Topic: "t"})
				statMu.Lock()
				switch {
				case err == nil:
					okCount++
				case errors.Is(err, ErrDropped):
					dropCount++
				default:
					statMu.Unlock()
					t.Errorf("unexpected send error: %v", err)
					return
				}
				statMu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	runIdle(t, engine)

	const attempted = senders * perSender
	delivered, dropped := bus.Stats()
	if delivered+dropped != attempted {
		t.Errorf("delivered %d + dropped %d != attempted %d", delivered, dropped, attempted)
	}
	if int64(delivered) != okCount || int64(dropped) != dropCount {
		t.Errorf("stats (%d,%d) disagree with caller-observed (%d,%d)",
			delivered, dropped, okCount, dropCount)
	}
	if dropped == 0 {
		t.Error("no drops at 30% loss — loss knob inert")
	}
	if bus.Duplicated() == 0 {
		t.Error("no duplicates at 20% duplication — dup knob inert")
	}

	// Handlers saw every delivery exactly once, plus one extra per
	// duplicate — no more, no fewer.
	var handledTotal int64
	handled.Range(func(_, v any) bool {
		handledTotal += *v.(*int64)
		return true
	})
	want := int64(delivered + bus.Duplicated())
	if handledTotal != want {
		t.Errorf("handlers saw %d messages, want %d (delivered + duplicated)", handledTotal, want)
	}

	// The metrics mirror agrees with the bus's own counters.
	if metrics.Counter("bus.delivered") != int64(delivered) ||
		metrics.Counter("bus.dropped") != int64(dropped) {
		t.Errorf("metrics mirror (%d,%d) disagrees with stats (%d,%d)",
			metrics.Counter("bus.delivered"), metrics.Counter("bus.dropped"), delivered, dropped)
	}
}
