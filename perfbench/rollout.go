package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The rollout workload: a two-root coalition (us, uk) of ticking
// devices, each enrolled on its own org's root. Publishes alternate
// between the roots and land half-way between tick instants; every
// revision is a real delta that changes each subscriber's residual.
const (
	rolloutPerOrg = 8000
	// convergeSlack is the virtual time a publish gets to converge:
	// bus latency is 1ms, so fan-out, delivery and ack fit well inside.
	convergeSlack = 100 * time.Millisecond
	// applyProbeAgents is how many probe agents replay each delta.
	applyProbeAgents = 16
	rolloutSetups    = 3
)

var rolloutOrgs = []string{"us", "uk"}

// rolloutKeys are the two org roots' signing keys.
func rolloutKeys() map[string]bundle.HMACKey {
	return map[string]bundle.HMACKey{
		"us": {ID: "us-root", Secret: []byte("perfbench us signing secret")},
		"uk": {ID: "uk-root", Secret: []byte("perfbench uk signing secret")},
	}
}

// coalitionRing is the device-side trust store: both org keys, each
// confined to its own org.
func coalitionRing() *bundle.KeyRing {
	ring := bundle.NewKeyRing()
	for org, k := range rolloutKeys() {
		ring.Add(k.ID, k, bundle.Scope{Org: org})
	}
	return ring
}

// coalition is one built rollout fleet.
type coalition struct {
	seed    int64
	clock   *sim.Clock
	engine  *sim.Engine
	log     *audit.Log
	reg     *telemetry.Registry
	bus     *network.Bus
	dist    *core.Distributor
	devices []*device.Device
	ticks   []int64
	perOrg  int
	rev     map[string]int
	round   int // whole virtual seconds run so far
	next    int // index into rolloutOrgs of the next root to publish

	lastCPU     time.Duration // process CPU time of the last engine window
	publishWall time.Duration // last PublishRoot call (traced runs)
	publishErr  error
}

// buildCoalition builds the fleet, enrols every device on its org's
// root, and activates revision 1 of both roots. ticking schedules each
// device's MAPE loop; an idle coalition only runs the bundle plane.
func buildCoalition(seed int64, perOrg, workers int, ticking bool, pr *probes) (*coalition, error) {
	clock := sim.NewClock(epoch)
	engine := sim.NewEngine(clock)
	engine.SetParallelism(workers)
	log := audit.New(audit.WithClock(clock.Now))
	metrics := sim.NewMetrics()
	reg := metrics.Registry()
	bus := network.NewBus(rand.New(rand.NewSource(seed)),
		network.WithEngine(engine),
		network.WithMetrics(metrics),
		network.WithLatency(time.Millisecond, time.Millisecond))
	col, err := core.New(core.Config{
		Name: "perfbench-rollout", Audit: log, Bus: bus,
		KillSecret: []byte("perfbench-rollout"), ExpectedMembers: 2 * perOrg,
	})
	if err != nil {
		return nil, err
	}
	keys := rolloutKeys()
	roots := make([]core.RootConfig, 0, len(rolloutOrgs))
	for _, org := range rolloutOrgs {
		var s bundle.Signer = keys[org]
		if pr != nil {
			s = timedSigner{inner: s, s: pr.sign}
		}
		roots = append(roots, core.RootConfig{Org: org, Signer: s})
	}
	dist, err := core.NewDistributor(core.DistributorConfig{
		Collective: col, Roots: roots, Telemetry: reg, Clock: clock.Now, Engine: engine,
	})
	if err != nil {
		return nil, err
	}
	var ring bundle.Verifier = coalitionRing()
	if pr != nil {
		ring = wrapVerifier(ring, pr.verify)
	}
	orch, err := core.NewOrchestrator(col, engine)
	if err != nil {
		return nil, err
	}
	c := &coalition{seed: seed, clock: clock, engine: engine, log: log, reg: reg, bus: bus, dist: dist,
		devices: make([]*device.Device, 0, 2*perOrg), ticks: make([]int64, 2*perOrg),
		perOrg: perOrg, rev: make(map[string]int)}
	ps := plants(seed, 2*perOrg)
	for oi, org := range rolloutOrgs {
		for i := 0; i < perOrg; i++ {
			n := oi*perOrg + i
			g := core.StandardPipeline(core.SafetyConfig{Audit: log, Classifier: overheating})
			id := fmt.Sprintf("%s-%05d", org, i)
			d, err := plantDevice(id, org, ps[n], nil, g, col, log, pr, &c.ticks[n])
			if err != nil {
				return nil, err
			}
			if err := col.AddDevice(d, nil); err != nil {
				return nil, err
			}
			if err := dist.EnrollRoots(id, ring, org); err != nil {
				return nil, err
			}
			if ticking {
				if err := orch.Manage(id, time.Second, overheating, safeness); err != nil {
					return nil, err
				}
			}
			c.devices = append(c.devices, d)
		}
	}
	for i := range rolloutOrgs {
		if _, err := c.publish(epoch.Add(time.Duration(i+1) * time.Second / 4)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// desired compiles the next revision of one org's policy program.
func (c *coalition) desired(org string) ([]policy.Policy, error) {
	return policylang.CompileSource(revisionSource(c.seed, org, c.rev[org]+1), policy.OriginHuman)
}

// publish cuts the next root's next revision at virtual time at and
// runs the engine until every subscriber has acked it. It returns the
// converge window's host time: from the publish call until the last
// ack is in.
func (c *coalition) publish(at time.Time) (time.Duration, error) {
	org := rolloutOrgs[c.next]
	c.next = (c.next + 1) % len(rolloutOrgs)
	pols, err := c.desired(org)
	if err != nil {
		return 0, err
	}
	c.rev[org]++
	c.engine.Schedule(at.Sub(c.clock.Now()), func() {
		start := time.Now()
		_, c.publishErr = c.dist.PublishRoot(org, pols)
		c.publishWall = time.Since(start)
	})
	start, cpu := time.Now(), cpuTime()
	err = c.engine.Run(at.Add(convergeSlack))
	wall := time.Since(start)
	c.lastCPU = cpuTime() - cpu
	if err == nil {
		err = c.publishErr
	}
	return wall, err
}

// step runs the next whole virtual second: every device ticks once.
func (c *coalition) step() (time.Duration, error) {
	c.round++
	start, cpu := time.Now(), cpuTime()
	err := c.engine.Run(epoch.Add(time.Duration(c.round) * time.Second))
	c.lastCPU = cpuTime() - cpu
	return time.Since(start), err
}

// lagging queries both roots for devices still behind.
func (c *coalition) lagging() (int, time.Duration) {
	start := time.Now()
	n := 0
	for _, org := range rolloutOrgs {
		n += len(c.dist.LaggingRoot(org))
	}
	return n, time.Since(start) / time.Duration(len(rolloutOrgs))
}

func (c *coalition) activated() int64 { return c.reg.CounterTotal("bundle.activated") }

func (c *coalition) totalTicks() int64 {
	var n int64
	for _, t := range c.ticks {
		n += t
	}
	return n
}

// capture is the delta bundle of one publish as the distributor sends
// it, rebuilt from the same inputs by a mirror publisher: the wire
// bytes devices decode and the records they compile.
type capture struct {
	mirrors map[string]*bundle.Publisher
	agents  map[string][]*bundle.Agent
	wire    [][]byte
	records []bundle.Record
	applyUS dist
}

func newCapture() *capture {
	c := &capture{mirrors: map[string]*bundle.Publisher{}, agents: map[string][]*bundle.Agent{}}
	ring := coalitionRing()
	for org, k := range rolloutKeys() {
		c.mirrors[org] = bundle.NewOrgPublisher(k, org)
		for i := 0; i < applyProbeAgents; i++ {
			c.agents[org] = append(c.agents[org], bundle.NewOrgAgent(policy.NewSet(), ring, org))
		}
	}
	return c
}

// mirror republishes one revision and replays it on the probe agents,
// timing each agent's Apply of the delta (the first revision, a full
// bundle, is applied untimed).
func (cp *capture) mirror(org string, pols []policy.Policy) error {
	full, delta, err := cp.mirrors[org].Publish(pols)
	if err != nil {
		return err
	}
	b := full
	if delta.Manifest.Revision != 0 {
		b = delta
		wire, err := bundle.Encode(delta)
		if err != nil {
			return err
		}
		cp.wire = append(cp.wire, wire)
		cp.records = append(cp.records, delta.Records...)
	}
	for _, a := range cp.agents[org] {
		start := time.Now()
		applied, err := a.Apply(b)
		if err != nil || !applied {
			return fmt.Errorf("probe agent refused revision %d: %v", b.Manifest.Revision, err)
		}
		if b.Kind() == bundle.KindDelta {
			cp.applyUS.add(float64(time.Since(start)) / float64(time.Microsecond))
		}
	}
	return nil
}

// cycleStats are the timings of a stretch of rollout cycles: each
// cycle publishes one root, then runs the first tick round after the
// activation and one steady round.
type cycleStats struct {
	converge, first, steady, publish, lagQuery dist
	rate                                       dist // activations per second, per cycle
	wall, cpu                                  time.Duration
	convergeRT                                 rtDelta
	activations, ticks                         int64
	cycles                                     int
	lagging                                    int // devices still behind after their converge window
}

func (c *coalition) cycle(cs *cycleStats, cp *capture) error {
	org := rolloutOrgs[c.next]
	before, ticks := c.activated(), c.totalTicks()
	rt := startRuntime()
	// Publishes land half-way between tick instants.
	conv, err := c.publish(epoch.Add(time.Duration(c.round)*time.Second + time.Second/2))
	cs.convergeRT.addTo(rt.stop())
	convCPU := c.lastCPU
	if err != nil {
		return err
	}
	n, q := c.lagging()
	cs.lagging += n
	first, err := c.step()
	if err != nil {
		return err
	}
	firstCPU := c.lastCPU
	steady, err := c.step()
	if err != nil {
		return err
	}
	cs.converge.add(ms(conv))
	cs.first.add(ms(first))
	cs.steady.add(ms(steady))
	cs.publish.add(ms(c.publishWall))
	cs.lagQuery.add(float64(q) / float64(time.Microsecond))
	acts := float64(c.activated() - before)
	cs.rate.add(acts / (conv + first + steady).Seconds())
	cs.wall += conv + first + steady
	cs.cpu += convCPU + firstCPU + c.lastCPU
	cs.activations += c.activated() - before
	cs.ticks += c.totalTicks() - ticks
	cs.cycles++
	if cp != nil {
		pols, err := policylang.CompileSource(revisionSource(c.seed, org, c.rev[org]), policy.OriginHuman)
		if err != nil {
			return err
		}
		return cp.mirror(org, pols)
	}
	return nil
}

func runRollout(cfg run) (*report, error) {
	rep := newReport()
	var pr *probes
	var cp *capture
	if cfg.trace {
		pr = newProbes()
		cp = newCapture()
	}
	var (
		c      *coalition
		setups []float64
	)
	for i := 0; i < rolloutSetups; i++ {
		c = nil
		runtime.GC()
		cpu := cpuTime()
		var err error
		if c, err = buildCoalition(cfg.seed, rolloutPerOrg, cfg.workers, true, pr); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - cpu).Seconds())
	}
	rep.metrics["setup_s"] = median(setups)
	if cp != nil {
		for _, org := range rolloutOrgs {
			pols, err := policylang.CompileSource(revisionSource(c.seed, org, 1), policy.OriginHuman)
			if err != nil {
				return nil, err
			}
			if err := cp.mirror(org, pols); err != nil {
				return nil, err
			}
		}
	}
	// One warm-up round so every device has specialized revision 1.
	if _, err := c.step(); err != nil {
		return nil, err
	}
	// Footprint at a fixed amount of work, as for the fleet.
	rep.metrics["live_heap_mb"] = liveHeapMB()

	var cs, off cycleStats
	busBefore := c.bus.Sent()
	pushedBefore := c.reg.CounterTotal("bundle.pushed")
	bytesBefore := c.reg.CounterTotal("bundle.bytes_on_wire")
	if pr != nil {
		pr.reset()
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for on := true; time.Now().Before(deadline); on = !on {
		target := &cs
		if pr != nil {
			pr.enable(on)
			if !on {
				target = &off
			}
		}
		for range rolloutOrgs {
			if err := c.cycle(target, cp); err != nil {
				return nil, err
			}
		}
	}
	if pr != nil {
		pr.enable(true)
	}
	rep.attempted += cs.activations + off.activations

	// Books: every subscriber acked inside its converge window and
	// activated every revision, nothing was refused, and both roots'
	// activation ledgers verify.
	lagged := cs.lagging + off.lagging
	rep.verify("no device lagging after a converge window", errIf(lagged != 0, "%d device-windows still lagging", lagged))
	var want int64
	for _, revs := range c.rev {
		want += int64(revs * c.perOrg)
	}
	got := c.activated()
	rep.verify("every subscriber activated every revision", errIf(got != want, "activated %d, want %d", got, want))
	rej := c.reg.CounterTotal("bundle.rejected")
	rep.verify("no bundle refused", errIf(rej != 0, "%d bundles refused", rej))
	for _, org := range rolloutOrgs {
		rep.verify("ledger "+org+" verifies", c.dist.RootLedger(org).Verify())
	}
	rep.verify("audit chain verifies", c.log.Verify())

	if !cfg.trace {
		// Wall time is a median over cycles, so a slow stretch of the
		// host does not stand for the whole run. CPU time is summed:
		// garbage collection lands in some cycles and not others, and
		// the host's stalls do not enter it.
		rep.metrics["ops_per_s"] = cs.rate.p50()
		rep.metrics["ops_per_cpu_s"] = float64(cs.activations) / cs.cpu.Seconds()
		return rep, nil
	}

	m := rep.metrics
	acts := float64(cs.activations)
	m["core.publish_ms"] = cs.publish.p50()
	m["core.lagging_query_us"] = cs.lagQuery.p50()
	m["bundle.sign_us"] = pr.sign.dist(time.Microsecond).p50()
	m["bundle.verify_us"] = pr.verify.dist(time.Microsecond).p50()
	m["bundle.verifies_per_activation"] = float64(pr.verify.calls.Load()) / acts
	m["bundle.decode_us"] = probeDecode(cp.wire)
	m["bundle.apply_us"] = cp.applyUS.p50()
	m["policylang.compile_us"] = probeCompile(cp.records)
	m["bundle.bytes_per_push"] = float64(c.reg.CounterTotal("bundle.bytes_on_wire")-bytesBefore) /
		float64(c.reg.CounterTotal("bundle.pushed")-pushedBefore)
	m["network.msgs_per_activation"] = float64(c.bus.Sent()-busBefore) / float64(cs.activations+off.activations)
	m["rollout.converge_ms_p50"] = cs.converge.p50()
	m["rollout.first_round_ms_p50"] = cs.first.p50()
	m["rollout.first_round_extra_ms"] = cs.first.p50() - cs.steady.p50()
	m["runtime.gc_cpu_frac"] = cs.convergeRT.gcFrac()
	m["policy.eval_ns"] = probeEvaluate(c.devices, c.clock.Now())
	m["audit.append_ns"] = probeAppend(c.log)
	m["guard.checks_per_tick"] = float64(pr.guard.calls.Load()) / float64(cs.ticks)
	m["guard.check_us_p50"] = pr.guard.dist(time.Microsecond).p50()
	m["trace.overhead_frac"] = (cs.wall.Seconds()/float64(cs.cycles))/(off.wall.Seconds()/float64(off.cycles)) - 1

	// Scaling probe: the same publish loop on an idle full-size and an
	// idle quarter-size coalition, untraced.
	c = nil
	full, err := idleConvergePerSub(cfg.seed, rolloutPerOrg, cfg.workers)
	if err != nil {
		return nil, err
	}
	quarter, err := idleConvergePerSub(cfg.seed, rolloutPerOrg/4, cfg.workers)
	if err != nil {
		return nil, err
	}
	m["core.per_sub_growth"] = full / quarter
	return rep, nil
}

// idleConvergePerSub builds an idle coalition of perOrg devices per
// root, publishes each root four times, and returns the median converge
// time per subscriber in milliseconds.
func idleConvergePerSub(seed int64, perOrg, workers int) (float64, error) {
	runtime.GC()
	c, err := buildCoalition(seed, perOrg, workers, false, nil)
	if err != nil {
		return 0, err
	}
	var conv dist
	for i := 0; i < 4*len(rolloutOrgs); i++ {
		d, err := c.publish(c.clock.Now().Add(time.Second / 2))
		if err != nil {
			return 0, err
		}
		conv.add(ms(d))
	}
	return conv.p50() / float64(perOrg), nil
}
