package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/statespace"
)

// The fleet-tick workload: the overheating fleet of experiment E15,
// every device ticking its MAPE-K loop once per virtual second on the
// engine, watchdog sweeps every fifth second as barriers. No bundles,
// no HTTP.
const (
	fleetSize     = 10000
	sweepEvery    = 5 // rounds
	warmRounds    = 10
	fleetSetups   = 7
	samplerBuffer = 1 << 20
)

var (
	epoch       = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	heatSchema  = statespace.MustSchema(statespace.Var("heat", 0, 100))
	overheating = statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
		if st.MustGet("heat") >= 80 {
			return statespace.ClassBad
		}
		return statespace.ClassGood
	})
	safeness = statespace.SafenessFunc(func(st statespace.State) float64 {
		return (100 - st.MustGet("heat")) / 100
	})
	ventIsHarmful = guard.HarmPredictorFunc(func(ctx guard.ActionContext) float64 {
		if ctx.Action.Name == "vent" {
			return 1
		}
		return 0
	})
)

// probes are the timing wrappers of a traced run; nil fields mean
// untraced.
type probes struct {
	guard, actuator, sign, verify *sampler
}

func newProbes() *probes {
	return &probes{
		guard:    newSampler(samplerBuffer),
		actuator: newSampler(samplerBuffer),
		sign:     newSampler(4096),
		verify:   newSampler(samplerBuffer),
	}
}

// enable switches every wrapper's timing on or off.
func (p *probes) enable(on bool) {
	for _, s := range []*sampler{p.guard, p.actuator, p.sign, p.verify} {
		s.on.Store(on)
	}
}

func (p *probes) reset() {
	for _, s := range []*sampler{p.guard, p.actuator, p.sign, p.verify} {
		s.reset()
	}
}

// fleet is one built overheating fleet on its own engine and journal.
type fleet struct {
	clock   *sim.Clock
	engine  *sim.Engine
	log     *audit.Log
	devices []*device.Device
	ticks   []int64 // per-device sensor reads = MAPE ticks
	round   int
	lastCPU time.Duration // process CPU time of the last step
}

// plantDevice builds one overheating device: its sensor is the plant
// (heat climbs every tick), its cool actuator dumps heat.
func plantDevice(id, org string, p plant, pol []policy.Policy, g guard.Guard,
	col *core.Collective, log *audit.Log, pr *probes, ticks *int64) (*device.Device, error) {
	initial, err := heatSchema.StateFromMap(map[string]float64{"heat": p.Heat})
	if err != nil {
		return nil, err
	}
	if pr != nil {
		g = timedGuard{inner: g, s: pr.guard}
	}
	d, err := device.New(device.Config{
		ID: id, Type: "reactor", Organization: org,
		Initial:    initial,
		Guard:      g,
		KillSwitch: col.KillSwitch(),
		Audit:      log,
	})
	if err != nil {
		return nil, err
	}
	if len(pol) > 0 {
		if err := d.Policies().AddBatch(pol); err != nil {
			return nil, err
		}
	}
	h, rate := p.Heat, p.Rate
	if err := d.BindSensor("heat", device.SensorFunc{Label: "thermo", Fn: func() (float64, error) {
		*ticks++
		h = min(h+rate, 95)
		return h, nil
	}}); err != nil {
		return nil, err
	}
	var cool device.Actuator = device.ActuatorFunc{Label: "chiller", Fn: func(policy.Action) error {
		h = max(h-55, 15)
		return nil
	}}
	if pr != nil {
		cool = wrapActuator(cool, pr.actuator)
	}
	if err := d.RegisterActuator("cool", cool); err != nil {
		return nil, err
	}
	d.SetDefaultActuator(device.NopActuator{})
	return d, nil
}

// buildFleet builds and enrols an overheating fleet.
func buildFleet(seed int64, size, workers int, pr *probes) (*fleet, error) {
	clock := sim.NewClock(epoch)
	engine := sim.NewEngine(clock)
	engine.SetParallelism(workers)
	log := audit.New(audit.WithClock(clock.Now))
	col, err := core.New(core.Config{
		Name: "perfbench-fleet", Audit: log,
		KillSecret: []byte("perfbench-fleet"), ExpectedMembers: size,
	})
	if err != nil {
		return nil, err
	}
	orch, err := core.NewOrchestrator(col, engine)
	if err != nil {
		return nil, err
	}
	pol, err := policylang.CompileSource(fleetSource, policy.OriginHuman)
	if err != nil {
		return nil, err
	}
	f := &fleet{clock: clock, engine: engine, log: log,
		devices: make([]*device.Device, size), ticks: make([]int64, size)}
	for i, p := range plants(seed, size) {
		g := core.StandardPipeline(core.SafetyConfig{
			Audit: log, Classifier: overheating,
			HarmPredictor: ventIsHarmful, HarmThreshold: 0.5,
		})
		id := fmt.Sprintf("dev-%05d", i)
		d, err := plantDevice(id, "us", p, pol, g, col, log, pr, &f.ticks[i])
		if err != nil {
			return nil, err
		}
		if err := col.AddDevice(d, nil); err != nil {
			return nil, err
		}
		if err := orch.Manage(id, time.Second, overheating, safeness); err != nil {
			return nil, err
		}
		f.devices[i] = d
	}
	orch.SweepEvery(sweepEvery*time.Second, nil)
	return f, nil
}

// step runs one virtual second: every device ticks once, and every
// fifth second the watchdog sweeps.
func (f *fleet) step() (time.Duration, error) {
	f.round++
	start, cpu := time.Now(), cpuTime()
	err := f.engine.Run(epoch.Add(time.Duration(f.round) * time.Second))
	f.lastCPU = cpuTime() - cpu
	return time.Since(start), err
}

func (f *fleet) sweepRound() bool { return f.round%sweepEvery == 0 }

func (f *fleet) totalTicks() int64 {
	var n int64
	for _, t := range f.ticks {
		n += t
	}
	return n
}

// tip is the journal's length and last hash: equal tips over equal
// lengths mean byte-identical hash-chained journals.
func (f *fleet) tip() string {
	entries, _ := f.log.EntriesSince(f.log.Len() - 1)
	if len(entries) == 0 {
		return "empty"
	}
	return fmt.Sprintf("%d/%s", f.log.Len(), entries[0].Hash)
}

// warmFleet builds a fleet and runs its warm-up rounds, returning the
// process CPU time the build took.
func warmFleet(seed int64, size, workers, rounds int, pr *probes) (*fleet, time.Duration, error) {
	cpu := cpuTime()
	f, err := buildFleet(seed, size, workers, pr)
	if err != nil {
		return nil, 0, err
	}
	built := cpuTime() - cpu
	for i := 0; i < rounds; i++ {
		if _, err := f.step(); err != nil {
			return nil, 0, err
		}
	}
	return f, built, nil
}

// roundStats are the timings of a stretch of rounds.
type roundStats struct {
	all, sweep dist
	wall, cpu  time.Duration
	ticks      int64
}

// measure runs rounds while more says to, given how many it has run.
func (f *fleet) measure(more func(done int) bool, rs *roundStats) error {
	before := f.totalTicks()
	for i := 0; more(i); i++ {
		d, err := f.step()
		if err != nil {
			return err
		}
		rs.all.add(ms(d))
		if f.sweepRound() {
			rs.sweep.add(ms(d))
		}
		rs.wall += d
		rs.cpu += f.lastCPU
	}
	rs.ticks += f.totalTicks() - before
	return nil
}

// rounds and until are measure's two stopping rules.
func rounds(n int) func(int) bool { return func(done int) bool { return done < n } }

func until(deadline time.Time) func(int) bool {
	return func(int) bool { return time.Now().Before(deadline) }
}

func runFleetTick(cfg run) (*report, error) {
	rep := newReport()
	var pr *probes
	if cfg.trace {
		pr = newProbes()
	}

	// Set-up is repeated; each copy runs the same warm-up, so equal
	// journal tips across copies prove one seed replays identically.
	var (
		f      *fleet
		setups []float64
		tips   []string
	)
	for i := 0; i < fleetSetups; i++ {
		f = nil
		runtime.GC()
		var built time.Duration
		var err error
		if f, built, err = warmFleet(cfg.seed, fleetSize, cfg.workers, warmRounds, pr); err != nil {
			return nil, err
		}
		setups = append(setups, built.Seconds())
		tips = append(tips, f.tip())
	}
	rep.metrics["setup_s"] = median(setups)
	rep.verify("journal replays identically", sameTips(tips))
	// The footprint is taken at a fixed amount of work — the built fleet
	// after its warm-up — so a faster program is not charged for the
	// longer journal it writes in the timed phase.
	rep.metrics["live_heap_mb"] = liveHeapMB()

	measured := cfg.seconds
	if cfg.trace {
		measured /= 2 // the rest goes to the probes below
	}
	deadline := time.Now().Add(time.Duration(measured * float64(time.Second)))
	var rs, off roundStats
	rt := startRuntime()
	logBefore := f.log.Len()
	if pr != nil {
		pr.reset()
		// Alternate instrumented and bare blocks of two sweep periods;
		// the bare blocks give the tracing overhead.
		for on := true; time.Now().Before(deadline); on = !on {
			pr.enable(on)
			target := &rs
			if !on {
				target = &off
			}
			if err := f.measure(rounds(2*sweepEvery), target); err != nil {
				return nil, err
			}
		}
		pr.enable(true)
	} else if err := f.measure(until(deadline), &rs); err != nil {
		return nil, err
	}
	rtd := rt.stop()
	rep.attempted += int64(rs.all.n() + off.all.n())
	entries := f.log.Len() - logBefore

	rep.verify("audit chain verifies", f.log.Verify())
	rep.verify("fleet acted", errIf(f.log.CountKind(audit.KindAction) == 0, "no actions in the journal"))

	if !cfg.trace {
		rep.metrics["ops_per_s"] = float64(rs.ticks) / rs.wall.Seconds()
		rep.metrics["ops_per_cpu_s"] = float64(rs.ticks) / rs.cpu.Seconds()
		return rep, nil
	}

	ticks := float64(rs.ticks)
	allTicks := float64(rs.ticks + off.ticks)
	m := rep.metrics
	m["guard.checks_per_tick"] = float64(pr.guard.calls.Load()) / ticks
	m["guard.check_us_p50"] = pr.guard.dist(time.Microsecond).p50()
	m["audit.entries_per_tick"] = float64(entries) / allTicks
	m["sim.sweep_round_ms"] = rs.sweep.p50()
	m["fleet.round_ms_p50"] = rs.all.p50()
	m["fleet.round_ms_p90"] = rs.all.tail(0.90)
	busy := time.Duration(pr.guard.busy.Load() + pr.actuator.busy.Load())
	m["sim.unattributed_frac"] = 1 - busy.Seconds()/(rs.wall.Seconds()*float64(cfg.workers))
	m["runtime.gc_cpu_frac"] = rtd.gcFrac()
	m["runtime.allocs_per_tick"] = rtd.allocs / allTicks
	m["runtime.bytes_per_tick"] = rtd.bytes / allTicks
	m["trace.overhead_frac"] = (rs.wall.Seconds()/float64(rs.all.n()))/(off.wall.Seconds()/float64(off.all.n())) - 1
	m["audit.append_ns"] = probeAppend(f.log)
	m["policy.eval_ns"] = probeEvaluate(f.devices, f.clock.Now())

	// Scaling probes on fresh fleets, after the measured one is freed.
	f = nil
	if err := fleetScaling(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// fleetScaling measures the engine's parallel speedup (with the
// serial/parallel journal differential as a correctness check) and how
// per-tick cost grows with fleet size.
func fleetScaling(cfg run, rep *report) error {
	perTick := func(size, workers int) (float64, string, error) {
		f, _, err := warmFleet(cfg.seed, size, workers, warmRounds, nil)
		if err != nil {
			return 0, "", err
		}
		var rs roundStats
		if err := f.measure(rounds(4*sweepEvery), &rs); err != nil {
			return 0, "", err
		}
		return rs.wall.Seconds() / float64(rs.ticks), f.tip(), nil
	}
	serial, tip1, err := perTick(fleetSize/2, 1)
	if err != nil {
		return err
	}
	parallel, tip2, err := perTick(fleetSize/2, cfg.workers)
	if err != nil {
		return err
	}
	rep.metrics["sim.speedup_w2"] = serial / parallel
	rep.verify("journal identical at 1 and 2 workers", sameTips([]string{tip1, tip2}))

	small, _, err := perTick(2000, cfg.workers)
	if err != nil {
		return err
	}
	large, _, err := perTick(8000, cfg.workers)
	if err != nil {
		return err
	}
	rep.metrics["sim.per_device_growth"] = large / small
	return nil
}

// errIf returns an error with the message when bad is set.
func errIf(bad bool, format string, a ...any) error {
	if !bad {
		return nil
	}
	return fmt.Errorf(format, a...)
}

func sameTips(tips []string) error {
	for _, t := range tips[1:] {
		if t != tips[0] {
			return fmt.Errorf("journal tips differ: %v", tips)
		}
	}
	return nil
}
