package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bundle"
	"repro/internal/network"
	"repro/internal/telemetry"
)

// TestDistributorLaggingBooksProperty drives random two-root event
// sequences — enrollment before and after publishes, publishes, acks
// of every kind (stale, duplicate, above the current revision, forged,
// from senders never enrolled, for unknown roots), bus loss and
// partitions, and repair sweeps — and checks after every step that
// each root's bundle.lagging gauge, maintained in O(1) per event,
// equals the O(fleet) LaggingRoot scan.
func TestDistributorLaggingBooksProperty(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			laggingBooksRun(t, seed, 60)
		})
	}
}

func laggingBooksRun(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	bus := engineBus(seed)
	c := newCollective(t, func(cfg *Config) { cfg.Bus = bus })
	orgs := []string{"us", "uk"}
	var ids []string
	for _, org := range orgs {
		for i := 0; i < 3; i++ {
			ids = append(ids, fmt.Sprintf("%s-%d", org, i))
		}
	}
	// rogue is a collective member the distributor never enrolls; "zz"
	// is a root the distributor does not have.
	senders := append(slices.Clone(ids), "rogue")
	ackOrgs := append(slices.Clone(orgs), "zz")
	for _, id := range senders {
		if err := c.AddDevice(newMember(t, c, id, 10), nil); err != nil {
			t.Fatalf("AddDevice %s: %v", id, err)
		}
	}
	keys := map[string]bundle.HMACKey{
		"us": {ID: "us-root", Secret: []byte("us secret")},
		"uk": {ID: "uk-root", Secret: []byte("uk secret")},
	}
	reg := telemetry.NewRegistry()
	dist, err := NewDistributor(DistributorConfig{
		Collective: c,
		Telemetry:  reg,
		Roots:      []RootConfig{{Org: "us", Signer: keys["us"]}, {Org: "uk", Signer: keys["uk"]}},
	})
	if err != nil {
		t.Fatalf("NewDistributor: %v", err)
	}
	ring := bundle.NewKeyRing().
		Add(keys["us"].ID, keys["us"], bundle.Scope{Org: "us"}).
		Add(keys["uk"].ID, keys["uk"], bundle.Scope{Org: "uk"})

	check := func(step int, what string) {
		t.Helper()
		settle(t, c)
		for _, org := range orgs {
			gauge := reg.Gauge("bundle.lagging", "root", org).Value()
			if scan := dist.LaggingRoot(org); int(gauge) != len(scan) {
				t.Fatalf("step %d (%s): bundle.lagging{%s} = %v, LaggingRoot = %v", step, what, org, gauge, scan)
			}
		}
	}
	published := map[string]int{}
	for step := 0; step < steps; step++ {
		var what string
		switch rng.Intn(7) {
		case 0: // enroll (or re-enroll) on the own root, sometimes both
			id := ids[rng.Intn(len(ids))]
			roots := []string{id[:2]}
			if rng.Intn(4) == 0 {
				roots = orgs
			}
			what = fmt.Sprintf("enroll %s on %v", id, roots)
			if err := dist.EnrollRoots(id, ring, roots...); err != nil {
				t.Fatalf("EnrollRoots: %v", err)
			}
		case 1, 2: // publish
			org := orgs[rng.Intn(len(orgs))]
			published[org]++
			what = fmt.Sprintf("publish %s r%d", org, published[org])
			if _, err := dist.PublishRoot(org, orgPolicies(t, org, fmt.Sprint("r", published[org]), 1+rng.Intn(3))); err != nil {
				t.Fatalf("PublishRoot: %v", err)
			}
		case 3: // an ack of any revision, any root, any claimed sender
			from := senders[rng.Intn(len(senders))]
			claimed := from
			if rng.Intn(4) == 0 {
				claimed = ids[rng.Intn(len(ids))] // forged unless it happens to match
			}
			org := ackOrgs[rng.Intn(len(ackOrgs))]
			rev := uint64(rng.Intn(published[org] + 3))
			what = fmt.Sprintf("ack from %s as %s on %s r%d", from, claimed, org, rev)
			ack := BundleAck{Device: claimed, Org: org, Revision: rev, Applied: rng.Intn(2) == 0}
			_ = bus.Send(network.Message{From: from, To: dist.id, Topic: TopicBundleAck, Payload: ack})
		case 4: // bus loss
			p := []float64{0, 0, 0.5, 1}[rng.Intn(4)]
			what = fmt.Sprintf("loss %v", p)
			bus.SetLoss(p)
		case 5: // partition one device away, or heal
			if rng.Intn(2) == 0 {
				id := ids[rng.Intn(len(ids))]
				what = "partition " + id
				bus.Partition(map[string]int{id: 1})
			} else {
				what = "heal"
				bus.Heal()
			}
		case 6:
			what = "repair sweep"
			dist.RepairSweep()
		}
		check(step, what)
	}
	bus.SetLoss(0)
	bus.Heal()
	dist.RepairSweep()
	check(steps, "sweep on a clean bus")
}
