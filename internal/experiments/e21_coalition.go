package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/statespace"
)

// E21Params configures the coalition distribution experiment: two
// organizations share one fleet and one bus, each org's devices follow
// their own signed revision stream (a disjoint org root), and chaos
// plus a compromised-key attacker try to break isolation between the
// two trust boundaries.
type E21Params struct {
	// Seed drives the bus fault sampling.
	Seed int64
	// FleetPerOrg is the number of devices per organization.
	FleetPerOrg int
	// RevisionsUS and RevisionsUK are the revision counts each root
	// publishes; they differ so stream independence is observable.
	RevisionsUS int
	RevisionsUK int
	// PolicyCount is the number of policies per revision.
	PolicyCount int
	// PublishEvery is the cadence of revision publishes (both roots).
	PublishEvery time.Duration
	// SweepEvery is the anti-entropy repair cadence.
	SweepEvery time.Duration
	// Attacks is the number of cross-boundary pushes signed with the
	// compromised org-A key (half namespace smuggles, half foreign-root
	// claims). Must be even.
	Attacks int
	// Loss is the loss probability during the loss window.
	Loss float64
	// Horizon is the virtual run length.
	Horizon time.Duration
	// FanoutBatch sizes the sharded publish fan-out batches; small by
	// default so even the test fleet exercises multi-batch fan-out.
	FanoutBatch int
	// Workers are the engine parallelism levels to compare; the first
	// must be 1 (the serial baseline).
	Workers []int
}

func (p *E21Params) defaults() {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.FleetPerOrg <= 0 {
		p.FleetPerOrg = 4
	}
	if p.RevisionsUS <= 0 {
		p.RevisionsUS = 10
	}
	if p.RevisionsUK <= 0 {
		p.RevisionsUK = 7
	}
	if p.PolicyCount <= 0 {
		p.PolicyCount = 6
	}
	if p.PublishEvery <= 0 {
		p.PublishEvery = 25 * time.Millisecond
	}
	if p.SweepEvery <= 0 {
		p.SweepEvery = 40 * time.Millisecond
	}
	if p.Attacks <= 0 {
		p.Attacks = 6
	}
	if p.Loss <= 0 {
		p.Loss = 0.30
	}
	if p.Horizon <= 0 {
		p.Horizon = 700 * time.Millisecond
	}
	if p.FanoutBatch <= 0 {
		p.FanoutBatch = 3
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4}
	}
}

// E21Outcome is one configuration's exact books: per-root convergence,
// cross-boundary refusal accounting, forged-report accounting, and the
// digests the determinism gate compares across worker counts.
type E21Outcome struct {
	Workers       int
	RevUS         uint64
	RevUK         uint64
	Converged     bool
	OnFinalUS     int
	OnFinalUK     int
	CrossActive   int // devices holding any foreign-org revision (must be 0)
	ForgedAckedUS uint64

	ActivatedFull  int64
	ActivatedDelta int64
	RejectedScope  int64
	RejectedGap    int64
	RejectedOther  int64
	ScopeRejUS     int64
	ScopeRejUK     int64
	ForgedAcks     int64
	ForgedPulls    int64
	AuditedScope   int
	AuditedForged  int

	Pushes     int64
	Acks       int64
	Repairs    int64
	Pulls      int64
	BytesFull  int64
	BytesDelta int64

	JournalLen  int
	JournalTip  string
	LedgerLenUS int
	LedgerTipUS string
	LedgerLenUK int
	LedgerTipUK string
}

// e21Revision compiles one org's policy set for one revision:
// PolicyCount policies in the org's ID namespace (the coalition
// convention, e.g. "us.fleet00"), with a rotating subset mutated each
// revision so deltas stay small but non-empty.
func e21Revision(org string, count, rev int) ([]policy.Policy, error) {
	var src string
	for i := 0; i < count; i++ {
		tag := "base"
		if i == rev%count || i == (rev+1)%count {
			tag = fmt.Sprintf("rev%d", rev)
		}
		src += fmt.Sprintf(
			"policy %s.fleet%02d priority %d:\n    on tick\n    when intensity > 0\n    do adjust target %s category surveillance\n",
			org, i, i+1, tag)
	}
	return policylang.CompileSource(src, policy.OriginHuman)
}

// e21Keys returns the two org signing keys.
func e21Keys() (us, uk bundle.HMACKey) {
	return bundle.HMACKey{ID: "us-root", Secret: []byte("e21 us signing secret")},
		bundle.HMACKey{ID: "uk-root", Secret: []byte("e21 uk signing secret")}
}

// e21Attacks builds the compromised-key attack corpus: the us signing
// key (assumed stolen) is used to (a) smuggle uk-namespace records
// under a us manifest and (b) claim the uk root outright. Both are
// validly signed; only scope checking can refuse them.
func e21Attacks(policyCount int) (smuggle, claim []byte, err error) {
	usKey, _ := e21Keys()
	foreign, err := e21Revision("uk", policyCount, 999)
	if err != nil {
		return nil, nil, err
	}

	// (a) Namespace smuggle: manifest org "us", records in "uk.*".
	aPub := bundle.NewOrgPublisher(usKey, "us")
	aFull, _, err := aPub.Publish(foreign)
	if err != nil {
		return nil, nil, err
	}
	smuggle, err = bundle.Encode(aFull)
	if err != nil {
		return nil, nil, err
	}

	// (b) Root claim: same records, manifest re-labelled org "uk",
	// re-rooted and re-signed — internally consistent, wrong key scope.
	bPub := bundle.NewOrgPublisher(usKey, "us")
	bFull, _, err := bPub.Publish(foreign)
	if err != nil {
		return nil, nil, err
	}
	bFull.Manifest.Org = "uk"
	bFull.Manifest.Root = bundle.ComputeRoot(bFull.Manifest)
	bFull.SignWith(usKey)
	claim, err = bundle.Encode(bFull)
	if err != nil {
		return nil, nil, err
	}
	return smuggle, claim, nil
}

// RunE21Workers runs the coalition distribution plane through the
// chaos-plus-attack schedule at one parallelism level and returns the
// exact outcome.
func RunE21Workers(p E21Params, workers int) (E21Outcome, error) {
	p.defaults()
	clock := sim.NewClock(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC))
	engine := sim.NewEngine(clock)
	engine.SetParallelism(workers)
	log := audit.New(audit.WithClock(clock.Now))
	metrics := sim.NewMetrics()
	reg := metrics.Registry()
	bus := network.NewBus(rand.New(rand.NewSource(p.Seed)),
		network.WithEngine(engine),
		network.WithMetrics(metrics),
		network.WithLatency(time.Millisecond, time.Millisecond))

	collective, err := core.New(core.Config{
		Name:       "e21",
		KillSecret: []byte("e21-secret"),
		Audit:      log,
		Bus:        bus,
		Telemetry:  reg,
	})
	if err != nil {
		return E21Outcome{}, err
	}

	schema, err := statespace.NewSchema(
		statespace.Var("heat", 0, 100),
		statespace.Var("fuel", 0, 100),
	)
	if err != nil {
		return E21Outcome{}, err
	}
	usKey, ukKey := e21Keys()
	dist, err := core.NewDistributor(core.DistributorConfig{
		Collective: collective,
		Roots: []core.RootConfig{
			{Org: "us", Signer: usKey},
			{Org: "uk", Signer: ukKey},
		},
		Telemetry:      reg,
		Clock:          clock.Now,
		FanoutBatch:    p.FanoutBatch,
		StuckThreshold: 3,
	})
	if err != nil {
		return E21Outcome{}, err
	}

	// Every device holds the full coalition keyring — both org keys,
	// each scoped to its own root — but subscribes only to its own
	// org's revision stream. The ring is what makes the attack corpus
	// interesting: the stolen us key *verifies* everywhere, and only
	// its scope stops it.
	ring := bundle.NewKeyRing().
		Add(usKey.ID, usKey, bundle.Scope{Org: "us"}).
		Add(ukKey.ID, ukKey, bundle.Scope{Org: "uk"})

	orgs := []string{"us", "uk"}
	deviceIDs := make(map[string][]string, len(orgs))
	var allDevices []string
	for _, org := range orgs {
		for i := 0; i < p.FleetPerOrg; i++ {
			id := fmt.Sprintf("%s-%02d", org, i)
			deviceIDs[org] = append(deviceIDs[org], id)
			allDevices = append(allDevices, id)
			initial, err := schema.StateFromMap(map[string]float64{"heat": 20, "fuel": 100})
			if err != nil {
				return E21Outcome{}, err
			}
			d, err := device.New(device.Config{
				ID: id, Type: "drone", Organization: org,
				Initial:    initial,
				KillSwitch: collective.KillSwitch(),
				Audit:      log,
			})
			if err != nil {
				return E21Outcome{}, err
			}
			if err := collective.AddDevice(d, nil); err != nil {
				return E21Outcome{}, err
			}
			if err := dist.EnrollRoots(id, ring, org); err != nil {
				return E21Outcome{}, err
			}
		}
	}

	// Publish cadence: both roots cut revisions from barrier events so
	// the bus's fault sampling order is serial and reproducible. The uk
	// stream is shorter, so the two roots' final revisions differ.
	pubUS, pubUK := 0, 0
	var publishErr error
	engine.ScheduleEvery(p.PublishEvery,
		func() bool { return (pubUS < p.RevisionsUS || pubUK < p.RevisionsUK) && publishErr == nil },
		func() {
			if pubUS < p.RevisionsUS {
				pols, err := e21Revision("us", p.PolicyCount, pubUS+1)
				if err == nil {
					_, err = dist.PublishRoot("us", pols)
				}
				if err != nil {
					publishErr = err
					return
				}
				pubUS++
			}
			if pubUK < p.RevisionsUK {
				pols, err := e21Revision("uk", p.PolicyCount, pubUK+1)
				if err == nil {
					_, err = dist.PublishRoot("uk", pols)
				}
				if err != nil {
					publishErr = err
					return
				}
				pubUK++
			}
		})

	// Anti-entropy repair across both roots, also on barriers.
	engine.ScheduleEvery(p.SweepEvery, func() bool { return true }, func() {
		dist.RepairSweep()
	})

	// Chaos windows, sized against the publish stream (10 revisions at
	// 25ms → publishes end at 250ms). The partition cuts half of EACH
	// org off, so both roots must repair through it:
	//   - 30% loss across the middle of the stream,
	//   - a symmetric partition,
	//   - a one-way partition silencing the same devices' acks while
	//     pushes still arrive (the push-succeeded/ack-lost case).
	var half []string
	for _, org := range orgs {
		half = append(half, deviceIDs[org][:p.FleetPerOrg/2]...)
	}
	groups := make(map[string]int, len(half))
	for _, id := range half {
		groups[id] = 1
	}
	injector := &chaos.Injector{Engine: engine, Bus: bus, Metrics: metrics}
	faults := []chaos.Fault{
		chaos.Loss{Prob: p.Loss, At: 50 * time.Millisecond, For: 100 * time.Millisecond},
		chaos.Partition{Groups: groups, At: 60 * time.Millisecond, For: 50 * time.Millisecond},
		chaos.OneWayPartition{
			From: half, To: []string{"bundle-distributor"},
			At: 160 * time.Millisecond, For: 50 * time.Millisecond,
		},
	}
	for _, f := range faults {
		f.Inject(injector)
	}

	// The compromised-key attack, injected after every chaos window has
	// healed so delivery is guaranteed and the books must balance
	// exactly: alternately a namespace smuggle pushed at a us device
	// (manifest org "us", records "uk.*") and a root claim pushed at a
	// uk device (manifest org "uk", signed by the us key). Every one is
	// validly signed; none may activate.
	smuggle, claim, err := e21Attacks(p.PolicyCount)
	if err != nil {
		return E21Outcome{}, err
	}
	attackLost := 0
	for i := 0; i < p.Attacks; i++ {
		i := i
		at := 320*time.Millisecond + time.Duration(i)*7*time.Millisecond
		engine.Schedule(at, func() {
			payload, to := smuggle, deviceIDs["us"][i/2%p.FleetPerOrg]
			if i%2 == 1 {
				payload, to = claim, deviceIDs["uk"][i/2%p.FleetPerOrg]
			}
			if err := bus.Send(network.Message{
				From: "attacker", To: to,
				Topic: core.TopicBundle, Payload: payload,
			}); err != nil {
				attackLost++
			}
		})
	}

	// Forged status reports from the attacker node: an ack claiming
	// us-00 already holds revision 999 (which would mask it from
	// repair), and a pull claiming uk-00 needs a full re-push. Both
	// must be dropped, counted and audited — the claimed devices'
	// ledger standing must come only from their own reports.
	forgedLost := 0
	engine.Schedule(300*time.Millisecond, func() {
		if err := bus.Send(network.Message{
			From: "attacker", To: "bundle-distributor", Topic: core.TopicBundleAck,
			Payload: core.BundleAck{Device: deviceIDs["us"][0], Org: "us", Revision: 999, Applied: true},
		}); err != nil {
			forgedLost++
		}
	})
	engine.Schedule(307*time.Millisecond, func() {
		if err := bus.Send(network.Message{
			From: "attacker", To: "bundle-distributor", Topic: core.TopicBundlePull,
			Payload: core.BundlePull{Device: deviceIDs["uk"][0], Org: "uk", Have: 0},
		}); err != nil {
			forgedLost++
		}
	})

	if err := engine.Run(clock.Now().Add(p.Horizon)); err != nil {
		return E21Outcome{}, err
	}
	if publishErr != nil {
		return E21Outcome{}, publishErr
	}
	if attackLost != 0 || forgedLost != 0 {
		return E21Outcome{}, fmt.Errorf("injection (workers=%d): %d attacks and %d forged reports failed to deliver after the chaos windows healed",
			workers, attackLost, forgedLost)
	}
	if err := log.Verify(); err != nil {
		return E21Outcome{}, fmt.Errorf("audit chain (workers=%d): %w", workers, err)
	}
	for _, org := range orgs {
		if err := dist.RootLedger(org).Verify(); err != nil {
			return E21Outcome{}, fmt.Errorf("%s activation ledger (workers=%d): %w", org, workers, err)
		}
	}

	out := E21Outcome{
		Workers:        workers,
		RevUS:          dist.RootRevision("us"),
		RevUK:          dist.RootRevision("uk"),
		Converged:      dist.Converged(),
		ForgedAckedUS:  dist.AckedRevisionRoot("us", deviceIDs["us"][0]),
		ActivatedFull:  reg.Counter("bundle.activated", "kind", "full").Value(),
		ActivatedDelta: reg.Counter("bundle.activated", "kind", "delta").Value(),
		RejectedScope:  reg.Counter("bundle.rejected", "cause", "scope").Value(),
		RejectedGap:    reg.Counter("bundle.rejected", "cause", "gap").Value(),
		ScopeRejUS:     reg.Counter("bundle.scope_rejected", "root", "us").Value(),
		ScopeRejUK:     reg.Counter("bundle.scope_rejected", "root", "uk").Value(),
		ForgedAcks:     reg.Counter("bundle.forged_report", "topic", core.TopicBundleAck).Value(),
		ForgedPulls:    reg.Counter("bundle.forged_report", "topic", core.TopicBundlePull).Value(),
		Pushes:         reg.Counter("bundle.pushed").Value(),
		Acks:           reg.Counter("bundle.acked").Value(),
		Repairs:        reg.Counter("bundle.repairs").Value(),
		Pulls:          reg.Counter("bundle.pulls").Value(),
		BytesFull:      reg.Counter("bundle.bytes_on_wire", "kind", "full").Value(),
		BytesDelta:     reg.Counter("bundle.bytes_on_wire", "kind", "delta").Value(),
		JournalLen:     log.Len(),
		LedgerLenUS:    dist.RootLedger("us").Len(),
		LedgerLenUK:    dist.RootLedger("uk").Len(),
	}
	out.RejectedOther = reg.CounterTotal("bundle.rejected") -
		out.RejectedScope - out.RejectedGap -
		reg.Counter("bundle.rejected", "cause", "signature").Value() -
		reg.Counter("bundle.rejected", "cause", "decode").Value()
	finals := map[string]uint64{"us": out.RevUS, "uk": out.RevUK}
	for _, org := range orgs {
		for _, id := range deviceIDs[org] {
			d, _ := collective.Device(id)
			set := d.Policies()
			if set.OrgRevision(org) == finals[org] {
				if org == "us" {
					out.OnFinalUS++
				} else {
					out.OnFinalUK++
				}
			}
			for _, other := range orgs {
				if other != org && set.OrgRevision(other) != 0 {
					out.CrossActive++
				}
			}
		}
	}
	for _, e := range log.ByKind(audit.KindBundle) {
		switch e.Detail {
		case "bundle.rejected":
			if e.Context["cause"] == "scope" {
				out.AuditedScope++
			}
		case "bundle.forged_report":
			out.AuditedForged++
		}
	}
	if entries := log.Entries(); len(entries) > 0 {
		out.JournalTip = entries[len(entries)-1].Hash
	}
	if entries := dist.RootLedger("us").Entries(); len(entries) > 0 {
		out.LedgerTipUS = entries[len(entries)-1].Hash
	}
	if entries := dist.RootLedger("uk").Entries(); len(entries) > 0 {
		out.LedgerTipUK = entries[len(entries)-1].Hash
	}
	return out, nil
}

// RunE21 proves the coalition trust-boundary claims: two disjoint org
// roots on one fleet and one bus each converge to their own published
// revision under 30% loss plus symmetric and one-way partition
// windows; every cross-boundary push signed with the stolen org key is
// refused with cause "scope" and exact books (injected == rejected ==
// audited, zero activated, zero foreign revisions on any device);
// forged acks and pulls from the attacker node are dropped, counted
// and inert; and the audit journal plus BOTH per-root activation
// ledgers are byte-identical at every engine parallelism, with the
// publish fan-out running as sharded batch events.
func RunE21(p E21Params) (Result, error) {
	p.defaults()
	result := Result{
		ID:    "E21",
		Title: "Coalition roots: cross-boundary refusal and per-root convergence under chaos",
		Headers: []string{"workers", "rev_us", "rev_uk", "converged", "act_full", "act_delta",
			"rej_scope", "scope_us", "scope_uk", "forged", "repairs", "pulls", "identical"},
	}
	var base E21Outcome
	for i, workers := range p.Workers {
		out, err := RunE21Workers(p, workers)
		if err != nil {
			return Result{}, err
		}
		if !out.Converged || out.OnFinalUS != p.FleetPerOrg || out.OnFinalUK != p.FleetPerOrg {
			return Result{}, fmt.Errorf("e21: fleet not converged at workers=%d: us %d/%d on rev %d, uk %d/%d on rev %d",
				workers, out.OnFinalUS, p.FleetPerOrg, out.RevUS, out.OnFinalUK, p.FleetPerOrg, out.RevUK)
		}
		if out.RevUS == out.RevUK {
			return Result{}, fmt.Errorf("e21: roots ended on the same revision (%d) — stream independence not demonstrated", out.RevUS)
		}
		if out.CrossActive != 0 {
			return Result{}, fmt.Errorf("e21: %d devices hold a foreign org's revision — trust boundary breached", out.CrossActive)
		}
		if out.RejectedScope != int64(p.Attacks) {
			return Result{}, fmt.Errorf("e21: scope refusals %d != injected attacks %d (workers=%d)",
				out.RejectedScope, p.Attacks, workers)
		}
		if out.AuditedScope != p.Attacks {
			return Result{}, fmt.Errorf("e21: %d scope refusals audited, want %d", out.AuditedScope, p.Attacks)
		}
		if want := int64(p.Attacks / 2); out.ScopeRejUS != want || out.ScopeRejUK != want {
			return Result{}, fmt.Errorf("e21: per-root scope refusals us=%d uk=%d, want %d each",
				out.ScopeRejUS, out.ScopeRejUK, want)
		}
		if out.RejectedOther != 0 {
			return Result{}, fmt.Errorf("e21: unexpected rejection causes (count %d) beyond scope/gap", out.RejectedOther)
		}
		if out.ForgedAcks != 1 || out.ForgedPulls != 1 || out.AuditedForged != 2 {
			return Result{}, fmt.Errorf("e21: forged-report books unbalanced: acks=%d pulls=%d audited=%d, want 1/1/2",
				out.ForgedAcks, out.ForgedPulls, out.AuditedForged)
		}
		if out.ForgedAckedUS != out.RevUS {
			return Result{}, fmt.Errorf("e21: us-00 acked revision %d (forged ack claimed 999, final is %d) — forged ack not inert",
				out.ForgedAckedUS, out.RevUS)
		}
		if out.ActivatedDelta == 0 || out.BytesDelta == 0 {
			return Result{}, fmt.Errorf("e21: no delta activations measured — delta path untested")
		}
		identical := "baseline"
		if i == 0 {
			base = out
		} else {
			identical = "yes"
			norm := out
			norm.Workers = base.Workers
			if norm != base {
				identical = "NO"
			}
		}
		result.Rows = append(result.Rows, []string{
			itoa(workers), itoa(int(out.RevUS)), itoa(int(out.RevUK)), fmt.Sprint(out.Converged),
			itoa(int(out.ActivatedFull)), itoa(int(out.ActivatedDelta)),
			itoa(int(out.RejectedScope)), itoa(int(out.ScopeRejUS)), itoa(int(out.ScopeRejUK)),
			itoa(int(out.ForgedAcks + out.ForgedPulls)), itoa(int(out.Repairs)), itoa(int(out.Pulls)),
			identical,
		})
	}
	result.Notes = append(result.Notes,
		fmt.Sprintf("two org roots (us: %d revisions, uk: %d) over %d devices each, one bus; 30%% loss %v–%v, symmetric partition %v–%v, one-way (ack-silencing) partition %v–%v cutting half of each org",
			p.RevisionsUS, p.RevisionsUK, p.FleetPerOrg,
			50*time.Millisecond, 150*time.Millisecond,
			60*time.Millisecond, 110*time.Millisecond,
			160*time.Millisecond, 210*time.Millisecond),
		fmt.Sprintf("convergence: every device on its own root's final revision (us %d, uk %d); 0 devices hold any foreign revision",
			base.RevUS, base.RevUK),
		fmt.Sprintf("compromised key: %d validly-signed cross-boundary pushes (namespace smuggles + root claims), %d refused with cause scope (us %d / uk %d), %d activated; every refusal audited",
			p.Attacks, base.RejectedScope, base.ScopeRejUS, base.ScopeRejUK, 0),
		fmt.Sprintf("forged reports: 1 ack (claiming us-00 at rev 999) + 1 pull dropped, counted and audited; us-00's ledger standing unaffected (acked %d)",
			base.ForgedAckedUS),
		fmt.Sprintf("fan-out ran as sharded batch events (batch=%d) staged through lanes; equal tips over equal lengths = byte-identical journal AND both per-root ledgers at every parallelism",
			p.FanoutBatch))
	return result, nil
}
