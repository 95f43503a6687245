// Surveillance: the paper's coalition scenario (Section II).
//
// Two coalition members (US and UK) patrol a region. A surveillance
// drone sees smoke and calls upon a chemical-sensor drone; it sees a
// suspect convoy and calls upon a ground mule to intercept. Policies
// for the cross-device interactions are GENERATED from an interaction
// graph and templates when the peers are discovered (Section IV), a
// legislative overseer checks their scope, and a pre-action guard
// vetoes the interception when humans are on the predicted path.
//
// Run: go run ./examples/surveillance
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/audit"
	"repro/internal/coalition"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/generative"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/statespace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))
	clock := sim.NewClock(time.Date(2026, 7, 6, 6, 0, 0, 0, time.UTC))
	world, err := sim.NewWorld(30, 30, rng, clock)
	if err != nil {
		return err
	}
	// Civilians near the convoy's path.
	if err := world.AddHuman("shepherd", sim.Pos{X: 12, Y: 8}, true); err != nil {
		return err
	}

	coal := coalition.New()
	for _, org := range []string{"us", "uk"} {
		if err := coal.AddOrganization(org); err != nil {
			return err
		}
	}
	if err := coal.SetTrust("us", "uk", coalition.TrustFull); err != nil {
		return err
	}
	if err := coal.SetTrust("uk", "us", coalition.TrustFull); err != nil {
		return err
	}

	auditLog := audit.New()
	// Requests the drone routes to its peers are bus deliveries on the
	// engine; each stimulus runs it until the collaboration settles.
	engine := sim.NewEngine(clock)
	collective, err := core.New(core.Config{
		Name:       "coalition-recon",
		Bus:        network.NewBus(nil, network.WithEngine(engine)),
		Audit:      auditLog,
		Coalition:  coal,
		KillSecret: []byte("coalition-quorum"),
	})
	if err != nil {
		return err
	}

	schema, err := statespace.NewSchema(statespace.Var("fuel", 0, 100))
	if err != nil {
		return err
	}
	fullFuel, err := schema.StateFromMap(map[string]float64{"fuel": 100})
	if err != nil {
		return err
	}

	// The pre-action guard consults the world: intercepting at a cell
	// with a civilian nearby predicts harm.
	harmGuard := core.StandardPipeline(core.SafetyConfig{
		Audit: auditLog,
		HarmPredictor: guard.HarmPredictorFunc(func(ctx guard.ActionContext) float64 {
			if ctx.Action.Name != "drive-intercept-path" {
				return 0
			}
			if len(world.HumansWithin(sim.Pos{X: 12, Y: 8}, 2)) > 0 && ctx.Action.Params["route"] == "through-pasture" {
				return 0.9
			}
			return 0
		}),
		HarmThreshold: 0.5,
	})

	// Build the three devices.
	type spec struct {
		id, typ, org string
		actions      map[string]func(policy.Action)
	}
	mkDevice := func(s spec) (*device.Device, error) {
		d, err := device.New(device.Config{
			ID: s.id, Type: s.typ, Organization: s.org,
			Initial:    fullFuel,
			Guard:      harmGuard,
			KillSwitch: collective.KillSwitch(),
			Audit:      auditLog,
		})
		if err != nil {
			return nil, err
		}
		for name, fn := range s.actions {
			fn := fn
			if err := d.RegisterActuator(name, device.ActuatorFunc{Label: name, Fn: func(a policy.Action) error {
				fn(a)
				return nil
			}}); err != nil {
				return nil, err
			}
		}
		return d, nil
	}

	drone, err := mkDevice(spec{id: "drone-1", typ: "surveillance-drone", org: "us",
		actions: map[string]func(policy.Action){}})
	if err != nil {
		return err
	}
	chem, err := mkDevice(spec{id: "chem-1", typ: "chem-drone", org: "uk",
		actions: map[string]func(policy.Action){
			"run-chem-survey": func(policy.Action) {
				fmt.Println("  chem-1 (uk): chemical/radiological survey of the smoke plume → negative")
			},
		}})
	if err != nil {
		return err
	}
	mule, err := mkDevice(spec{id: "mule-1", typ: "ground-mule", org: "us",
		actions: map[string]func(policy.Action){
			"drive-intercept-path": func(a policy.Action) {
				fmt.Printf("  mule-1 (us): intercepting convoy via %s\n", a.Params["route"])
			},
		}})
	if err != nil {
		return err
	}

	for _, d := range []*device.Device{drone, chem, mule} {
		if err := collective.AddDevice(d, nil); err != nil {
			return err
		}
	}
	drone.SetDefaultActuator(collective.RouterFor("drone-1"))

	// Chem drone and mule logic: respond to routed requests.
	if err := chem.Policies().Add(policy.Policy{
		ID: "survey", EventType: "request-survey", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "run-chem-survey"},
	}); err != nil {
		return err
	}
	for _, route := range []string{"through-pasture", "ridge-road"} {
		if err := mule.Policies().Add(policy.Policy{
			ID: "intercept-" + route, EventType: "request-intercept", Modality: policy.ModalityDo,
			Condition: policy.LabelEquals{Label: "route", Value: route},
			Action: policy.Action{Name: "drive-intercept-path",
				Params: map[string]string{"route": route}},
		}); err != nil {
			return err
		}
	}

	// The drone GENERATES its escalation policies on discovery
	// (Section IV), with a legislative scope check.
	graph := generative.NewInteractionGraph()
	for _, ts := range []generative.TypeSpec{
		{Name: "surveillance-drone"}, {Name: "chem-drone"}, {Name: "ground-mule"},
	} {
		if err := graph.AddType(ts); err != nil {
			return err
		}
	}
	if err := graph.AddInteraction(generative.Interaction{
		From: "surveillance-drone", To: "chem-drone", Kind: "escalate-smoke"}); err != nil {
		return err
	}
	if err := graph.AddInteraction(generative.Interaction{
		From: "surveillance-drone", To: "ground-mule", Kind: "intercept-convoy"}); err != nil {
		return err
	}
	gen := &generative.Generator{
		OwnType: "surveillance-drone", Organization: "us", Graph: graph,
		Templates: map[string]generative.Template{
			"escalate-smoke": {ID: "escalate", Text: `policy escalate-${device} priority 10:
    on smoke-detected
    when intensity > 3
    do request-survey target ${device} category surveillance`},
			"intercept-convoy": {ID: "intercept", Text: `policy intercept-${device} priority 10:
    on convoy-sighted
    when threat > 0.5
    do request-intercept target ${device} category tasking param route = "through-pasture"`},
		},
		Approver: &guard.SingleOverseer{Overseer: &guard.ScopeReviewer{
			Label: "legislative",
			Rules: []guard.ScopeRule{guard.PriorityCap{Max: 50}},
		}, Log: auditLog},
	}
	for _, peer := range []*device.Device{chem, mule} {
		// Adopt installs each discovery's policies as one batch, so the
		// drone's decision plane recompiles once per discovery.
		adopted, rejected, err := gen.Adopt(drone.Policies(), network.DeviceInfo{
			ID: peer.ID(), Type: peer.Type(), Organization: peer.Organization(),
		})
		if err != nil {
			return err
		}
		fmt.Printf("discovery of %s: %d policies generated, %d rejected by oversight\n",
			peer.ID(), len(adopted), len(rejected))
	}

	// Mission: smoke, then a convoy.
	fmt.Println("\n>> drone-1 sees smoke (intensity 5)")
	if _, err := collective.Deliver("drone-1", policy.Event{
		Type: "smoke-detected", Attrs: map[string]float64{"intensity": 5},
	}); err != nil {
		return err
	}
	if err := engine.RunUntilIdle(); err != nil {
		return err
	}

	fmt.Println(">> drone-1 sees a suspect convoy (threat 0.8) — pasture route has a civilian")
	if _, err := collective.Deliver("drone-1", policy.Event{
		Type: "convoy-sighted", Attrs: map[string]float64{"threat": 0.8},
	}); err != nil {
		return err
	}
	if err := engine.RunUntilIdle(); err != nil {
		return err
	}
	denials := auditLog.ByKind(audit.KindDenial)
	for _, d := range denials {
		fmt.Printf("  guard veto on %s: %s\n", d.Actor, d.Detail)
	}

	fmt.Println(">> human re-tasks the mule onto the ridge road")
	if _, err := collective.Deliver("mule-1", policy.Event{
		Type: "request-intercept", Source: "human-1",
		Labels: map[string]string{"route": "ridge-road"},
	}); err != nil {
		return err
	}

	direct, indirect := world.HarmCounts()
	fmt.Printf("\nharm to humans: direct=%d indirect=%d (audit entries: %d, verified: %v)\n",
		direct, indirect, auditLog.Len(), auditLog.Verify() == nil)
	return nil
}
