package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/statespace"
)

// RunF1 reproduces Figure 1 ("Mode of Operation of Devices"): one
// human command fans out through collaborating devices that decide the
// tactical actions themselves, with the human involved only at the
// strategic level.
func RunF1() (Result, error) {
	result := Result{
		ID:      "F1",
		Title:   "Mode of operation — one human command, collaborative device decomposition",
		Headers: []string{"step", "actor", "stimulus", "decision"},
	}

	// Routed requests between devices are bus deliveries on the engine;
	// each stimulus runs the engine until the collaboration it set off
	// has settled.
	engine := sim.NewEngine(sim.NewClock(time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)))
	collective, err := core.New(core.Config{
		Name:       "recon",
		KillSecret: []byte("f1"),
		Bus:        network.NewBus(nil, network.WithEngine(engine)),
	})
	if err != nil {
		return Result{}, err
	}
	schema, err := statespace.NewSchema(statespace.Var("fuel", 0, 100))
	if err != nil {
		return Result{}, err
	}

	type deviceSpec struct {
		id       string
		policies []policy.Policy
	}
	specs := []deviceSpec{
		{
			id: "drone-1",
			policies: []policy.Policy{
				{ID: "patrol", EventType: "command-patrol", Modality: policy.ModalityDo,
					Action: policy.Action{Name: "sweep-sector"}},
				{ID: "escalate-smoke", EventType: "smoke-detected", Modality: policy.ModalityDo,
					Action: policy.Action{Name: "request-survey", Target: "chem-1"}},
				{ID: "escalate-convoy", EventType: "convoy-sighted", Modality: policy.ModalityDo,
					Action: policy.Action{Name: "request-intercept", Target: "mule-1"}},
			},
		},
		{
			id: "chem-1",
			policies: []policy.Policy{
				{ID: "survey", EventType: "request-survey", Modality: policy.ModalityDo,
					Action: policy.Action{Name: "run-chem-survey"}},
			},
		},
		{
			id: "mule-1",
			policies: []policy.Policy{
				{ID: "intercept", EventType: "request-intercept", Modality: policy.ModalityDo,
					Action: policy.Action{Name: "drive-intercept-path"}},
			},
		},
	}

	step := 0
	record := func(actor, stimulus, decision string) {
		step++
		result.Rows = append(result.Rows, []string{itoa(step), actor, stimulus, decision})
	}

	for _, spec := range specs {
		d, err := device.New(device.Config{ID: spec.id, Type: "unit", Initial: schema.Origin()})
		if err != nil {
			return Result{}, err
		}
		for _, p := range spec.policies {
			if err := d.Policies().Add(p); err != nil {
				return Result{}, err
			}
		}
		if err := collective.AddDevice(d, nil); err != nil {
			return Result{}, err
		}
		d.SetDefaultActuator(collective.RouterFor(spec.id))
	}
	// Local actuators for the leaf actions so they do not route.
	for _, leaf := range []struct{ id, action string }{
		{id: "drone-1", action: "sweep-sector"},
		{id: "chem-1", action: "run-chem-survey"},
		{id: "mule-1", action: "drive-intercept-path"},
	} {
		d, _ := collective.Device(leaf.id)
		action := leaf.action
		actor := leaf.id
		if err := d.RegisterActuator(action, device.ActuatorFunc{Label: action, Fn: func(a policy.Action) error {
			record(actor, "policy decision", "execute "+a.Name)
			return nil
		}}); err != nil {
			return Result{}, err
		}
	}

	record("human-1", "strategic intent", "issue command-patrol (the only human decision)")
	humanDecisions := 1
	collective.Command(policy.Event{Type: "command-patrol", Source: "human-1"})
	if err := engine.RunUntilIdle(); err != nil {
		return Result{}, err
	}

	// The environment produces stimuli; devices decide autonomously.
	for _, stimulus := range []string{"smoke-detected", "convoy-sighted"} {
		record("environment", "sensor input", stimulus)
		if _, err := collective.Deliver("drone-1", policy.Event{Type: stimulus, Source: "sensor"}); err != nil {
			return Result{}, err
		}
		if err := engine.RunUntilIdle(); err != nil {
			return Result{}, err
		}
	}

	deviceDecisions := step - humanDecisions - 2 // minus the two environment rows
	result.Notes = append(result.Notes,
		fmt.Sprintf("human decisions: %d, autonomous device decisions: %d", humanDecisions, deviceDecisions),
		"paper expectation: humans involved only in strategic decisions; devices collaborate on tactics")
	return result, nil
}

// RunF2 reproduces Figure 2 ("Abstract Model of a Device"): the
// event→(state,logic)→action→new-state cycle of one device, traced.
func RunF2() (Result, error) {
	result := Result{
		ID:      "F2",
		Title:   "Abstract device model — ECA logic moving the device through its state space",
		Headers: []string{"event", "state before", "action", "state after"},
	}
	schema, err := statespace.NewSchema(
		statespace.Var("altitude", 0, 100),
		statespace.Var("battery", 0, 100),
	)
	if err != nil {
		return Result{}, err
	}
	initial, err := schema.StateFromMap(map[string]float64{"battery": 90})
	if err != nil {
		return Result{}, err
	}
	d, err := device.New(device.Config{ID: "drone", Initial: initial})
	if err != nil {
		return Result{}, err
	}
	rules := []policy.Policy{
		{ID: "launch", EventType: "command-launch", Modality: policy.ModalityDo,
			Action: policy.Action{Name: "climb", Effect: statespace.Delta{"altitude": 40, "battery": -10}}},
		{ID: "cruise", EventType: "tick", Modality: policy.ModalityDo,
			Condition: policy.Threshold{Quantity: "state.battery", Op: policy.CmpGT, Value: 30},
			Action:    policy.Action{Name: "hold-altitude", Effect: statespace.Delta{"battery": -25}}},
		{ID: "land-low-battery", EventType: "tick", Priority: 5, Modality: policy.ModalityDo,
			Condition: policy.Threshold{Quantity: "state.battery", Op: policy.CmpLE, Value: 30},
			Action:    policy.Action{Name: "descend-and-land", Effect: statespace.Delta{"altitude": -40}}},
	}
	for _, p := range rules {
		if err := d.Policies().Add(p); err != nil {
			return Result{}, err
		}
	}

	events := []string{"command-launch", "tick", "tick", "tick"}
	for _, evType := range events {
		before := d.CurrentState().String()
		execs, err := d.HandleEvent(policy.Event{Type: evType})
		if err != nil {
			return Result{}, err
		}
		actionName := "(none)"
		if len(execs) > 0 {
			actionName = execs[0].Action.Name
		}
		result.Rows = append(result.Rows, []string{evType, before, actionName, d.CurrentState().String()})
	}
	result.Notes = append(result.Notes,
		"paper expectation: the logic looks at current state + inbound event, invokes an actuator, and the action moves the device to a new state")
	return result, nil
}

// F3Params configures the Figure 3 reproduction.
type F3Params struct {
	Seed  int64
	Steps int
}

// RunF3 reproduces Figure 3 ("Simplified State Description of
// System"): a two-variable state space with a good region surrounded
// by bad regions, rendered as ASCII, plus a comparison of an unguarded
// vs a state-space-guarded random walk through it.
func RunF3(p F3Params) (Result, error) {
	if p.Steps <= 0 {
		p.Steps = 2000
	}
	schema, err := statespace.NewSchema(
		statespace.Var("v1", 0, 100),
		statespace.Var("v2", 0, 100),
	)
	if err != nil {
		return Result{}, err
	}
	// Figure 3 layout: bad strips on the left, right and bottom; good
	// in the middle.
	classifier := &statespace.RegionClassifier{
		Bad: []statespace.Region{
			statespace.NewBox("bad-left", map[string]statespace.Interval{"v1": {Lo: 0, Hi: 15}}),
			statespace.NewBox("bad-right", map[string]statespace.Interval{"v1": {Lo: 85, Hi: 100}}),
			statespace.NewBox("bad-bottom", map[string]statespace.Interval{"v2": {Lo: 0, Hi: 15}}),
		},
		Default: statespace.ClassGood,
	}

	start, err := schema.StateFromMap(map[string]float64{"v1": 50, "v2": 60})
	if err != nil {
		return Result{}, err
	}

	walk := func(guarded bool, seed int64) (badEntries int, final statespace.State) {
		rng := rand.New(rand.NewSource(seed))
		st := start
		for i := 0; i < p.Steps; i++ {
			delta := statespace.Delta{
				"v1": (rng.Float64()*2 - 1) * 8,
				"v2": (rng.Float64()*2 - 1) * 8,
			}
			next, err := st.Apply(delta)
			if err != nil {
				continue
			}
			if guarded && classifier.Classify(next) == statespace.ClassBad {
				continue // refuse the transition; stay in a good state
			}
			st = next
			if classifier.Classify(st) == statespace.ClassBad {
				badEntries++
			}
		}
		return badEntries, st
	}

	unguardedBad, _ := walk(false, p.Seed)
	guardedBad, _ := walk(true, p.Seed)

	rendering, err := statespace.Render2D(schema, classifier, start, statespace.RenderOptions{
		XVar: "v1", YVar: "v2", Width: 56, Height: 14,
		Marks: []statespace.Mark{{At: start, Glyph: 'S'}},
	})
	if err != nil {
		return Result{}, err
	}

	return Result{
		ID:      "F3",
		Title:   "Simplified state description — good region bounded by bad regions",
		Headers: []string{"walker", "steps", "bad-state entries"},
		Rows: [][]string{
			{"unguarded", itoa(p.Steps), itoa(unguardedBad)},
			{"state-space guarded", itoa(p.Steps), itoa(guardedBad)},
		},
		Artifact: rendering,
		Notes: []string{
			"paper expectation: with the state-space check, the device never crosses into a bad region",
		},
	}, nil
}
