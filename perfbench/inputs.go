package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Every input a workload feeds the program is generated here from the
// seed alone; the program never sees the seed.

// plant is one device's simulated physics: its starting heat and how
// fast it heats up per tick.
type plant struct {
	Heat float64
	Rate float64
}

// plants draws n device plants. The ranges keep every device cycling
// through the overheat → cool loop, so per-tick work does not depend on
// the seed, only which tick each device alerts on.
func plants(seed int64, n int) []plant {
	rng := rand.New(rand.NewSource(seed))
	out := make([]plant, n)
	for i := range out {
		out[i] = plant{Heat: float64(20 + rng.Intn(41)), Rate: float64(9 + rng.Intn(7))}
	}
	return out
}

// fleetSource is the overheating fleet's policy program: cool on a
// self-state alert, and a harmful vent the guards must deny.
const fleetSource = `
policy cool priority 5: on self-state-alert do cool effect heat -= 55
policy vent priority 4: on self-state-alert do vent category kinetic-action`

// rolloutPolicies is the number of policies in each org's revision.
const rolloutPolicies = 8

// revisionSource is one org root's policy program at one revision: a
// self-state-alert responder the ticking devices act on, and a set of
// tick policies in the org's namespace. Every revision retunes the
// responder's cooling amount, so each publish is a real delta that
// changes every subscriber's residual, and re-tags two tick policies
// picked by the seed.
func revisionSource(seed int64, org string, rev int) string {
	rng := rand.New(rand.NewSource(seed*7919 + int64(rev)*2 + int64(len(org))))
	var b strings.Builder
	fmt.Fprintf(&b, "policy %s.cool priority 9:\n    on self-state-alert\n    do cool effect heat -= %d\n",
		org, 50+(rev%2)*5+rng.Intn(5))
	a, c := rng.Intn(rolloutPolicies-1), rng.Intn(rolloutPolicies-1)
	for i := 0; i < rolloutPolicies-1; i++ {
		tag := "base"
		if i == a || i == c {
			tag = fmt.Sprintf("rev%d", rev)
		}
		fmt.Fprintf(&b, "policy %s.fleet%02d priority %d:\n    on tick\n    when intensity > %d\n    do adjust target %s category surveillance\n",
			org, i, i+1, i*10, tag)
	}
	return b.String()
}

// serveSource is the served fleet's policy program: commands to cool
// and warm a device, a harmful vent the guards deny, and a scan.
const serveSource = `
policy cool priority 5: on cool-down do cool effect heat -= 1
policy vent priority 4: on cool-down do vent category kinetic-action
policy warm priority 5: on warm-up do warm effect heat += 1
policy scan priority 3: on scan do scan category surveillance`

// serveEvents are the command types the request generator draws from.
var serveEvents = []string{"cool-down", "warm-up", "scan"}

// reqKind is what one generated request asks the server for.
type reqKind int

const (
	reqCommand reqKind = iota // POST /v1/commands
	reqLookup                 // GET /v1/decisions/{trace}
	reqTail                   // GET /v1/audit/tail?from=
)

// request is one generated request of the served-command load.
type request struct {
	Kind   reqKind
	Target int    // device index (commands)
	Event  string // event type (commands)
}

// The read mix, per ten thousand requests: one request in a hundred
// looks up a decision and one catches up on the audit tail; the rest
// are commands. No recorded traffic fixes these shares. They are round
// figures for "a minority of reads", set without regard to what each
// read costs the server.
const (
	lookupPer10k = 100
	tailPer10k   = 100
)

// serveRequests draws one ladder step's request sequence.
func serveRequests(seed int64, step, n, devices int) []request {
	rng := rand.New(rand.NewSource(seed*104729 + int64(step)))
	out := make([]request, n)
	for i := range out {
		switch r := rng.Intn(10000); {
		case r < lookupPer10k:
			out[i] = request{Kind: reqLookup}
		case r < lookupPer10k+tailPer10k:
			out[i] = request{Kind: reqTail}
		default:
			out[i] = request{Kind: reqCommand, Target: rng.Intn(devices), Event: serveEvents[rng.Intn(len(serveEvents))]}
		}
	}
	return out
}
