package main

import (
	"reflect"
	"testing"
)

func TestSeedGeneratesIdenticalInputs(t *testing.T) {
	if !reflect.DeepEqual(plants(7, 500), plants(7, 500)) {
		t.Error("plants differ for one seed")
	}
	if reflect.DeepEqual(plants(7, 500), plants(8, 500)) {
		t.Error("plants ignore the seed")
	}
	for _, org := range rolloutOrgs {
		for rev := 1; rev < 5; rev++ {
			if revisionSource(7, org, rev) != revisionSource(7, org, rev) {
				t.Errorf("%s revision %d differs for one seed", org, rev)
			}
			if revisionSource(7, org, rev) == revisionSource(7, org, rev+1) {
				t.Errorf("%s revision %d is not a delta", org, rev)
			}
		}
	}
	for step := 0; step < 3; step++ {
		if !reflect.DeepEqual(serveRequests(7, step, 2000, 100), serveRequests(7, step, 2000, 100)) {
			t.Errorf("step %d requests differ for one seed", step)
		}
	}
	if reflect.DeepEqual(serveRequests(7, 0, 2000, 100), serveRequests(8, 0, 2000, 100)) {
		t.Error("requests ignore the seed")
	}
}

func TestServeMixIsMostlyCommands(t *testing.T) {
	counts := map[reqKind]int{}
	for _, r := range serveRequests(3, 1, 100000, serveDevices) {
		counts[r.Kind]++
		if r.Kind == reqCommand && (r.Target < 0 || r.Target >= serveDevices || r.Event == "") {
			t.Fatalf("bad command %+v", r)
		}
	}
	if counts[reqLookup] == 0 || counts[reqTail] == 0 || counts[reqCommand] < 95000 {
		t.Fatalf("mix %v", counts)
	}
}

// One seed drives the program to one journal: two fleets built from
// the same seed end their warm-up on the same tip.
func TestFleetReplaysFromSeed(t *testing.T) {
	tip := func(seed int64) string {
		f, _, err := warmFleet(seed, 200, 2, 12, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f.tip()
	}
	if a, b := tip(5), tip(5); a != b {
		t.Fatalf("same seed, different journals: %s vs %s", a, b)
	}
	if a, b := tip(5), tip(6); a == b {
		t.Fatalf("different seeds, same journal %s", a)
	}
}
