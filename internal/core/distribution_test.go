package core

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func distKey() bundle.HMACKey {
	return bundle.HMACKey{ID: "dist-key", Secret: []byte("distribution secret")}
}

func distPolicies(t *testing.T, n int, tag string) []policy.Policy {
	t.Helper()
	var src string
	for i := 0; i < n; i++ {
		src += "policy dp" + string(rune('a'+i)) + " priority " + strconv.Itoa(i+1) +
			":\n    on task\n    when intensity > 0\n    do work target " + tag + " category surveillance\n"
	}
	pols, err := policylang.CompileSource(src, policy.OriginHuman)
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	return pols
}

// distFixture wires a collective of two members on an engine bus with a
// distributor, both devices enrolled.
func distFixture(t *testing.T, mutate ...func(*DistributorConfig)) (*Collective, *Distributor, *network.Bus) {
	t.Helper()
	bus := engineBus(1)
	c := newCollective(t, func(cfg *Config) { cfg.Bus = bus })
	for _, id := range []string{"d1", "d2"} {
		if err := c.AddDevice(newMember(t, c, id, 10), nil); err != nil {
			t.Fatalf("AddDevice %s: %v", id, err)
		}
	}
	cfg := DistributorConfig{Collective: c, Signer: distKey()}
	for _, m := range mutate {
		m(&cfg)
	}
	dist, err := NewDistributor(cfg)
	if err != nil {
		t.Fatalf("NewDistributor: %v", err)
	}
	for _, id := range []string{"d1", "d2"} {
		if err := dist.Enroll(id, distKey()); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	return c, dist, bus
}

// TestNewDistributorEngineFromBus checks the distributor runs on its
// bus's engine: an attachment-only bus is refused, and a configured
// Engine must be that same engine.
func TestNewDistributorEngineFromBus(t *testing.T) {
	plain := newCollective(t)
	if _, err := NewDistributor(DistributorConfig{Collective: plain, Signer: distKey()}); err == nil {
		t.Error("distributor accepted a bus without an engine")
	}
	bus := engineBus(1)
	c := newCollective(t, func(cfg *Config) { cfg.Bus = bus })
	other := sim.NewEngine(sim.NewClock(time.Unix(0, 0)))
	if _, err := NewDistributor(DistributorConfig{Collective: c, Signer: distKey(), Engine: other}); err == nil {
		t.Error("distributor accepted an engine other than the bus's")
	}
	if _, err := NewDistributor(DistributorConfig{Collective: c, Signer: distKey(), Engine: bus.Engine()}); err != nil {
		t.Errorf("distributor refused the bus's own engine: %v", err)
	}
}

func TestDistributorPublishConverges(t *testing.T) {
	c, dist, _ := distFixture(t)
	rev, err := dist.Publish(distPolicies(t, 3, "r1"))
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	settle(t, c)
	if rev != 1 {
		t.Fatalf("revision %d, want 1", rev)
	}
	if !dist.Converged() {
		t.Fatalf("not converged after publish; lagging %v", dist.Lagging())
	}
	for _, id := range []string{"d1", "d2"} {
		d, _ := c.Device(id)
		if d.Policies().Len() != 3 {
			t.Fatalf("%s has %d policies, want 3", id, d.Policies().Len())
		}
		if got := d.Policies().Revision(); got != 1 {
			t.Fatalf("%s at revision %d, want 1", id, got)
		}
	}
	// Activations were audited on the shared log.
	if got := len(c.Audit().ByKind(audit.KindBundle)); got < 3 { // publish + 2 activations
		t.Fatalf("shared log has %d bundle entries, want >= 3", got)
	}

	// The activation ledger chains one status entry per ack, and
	// VerifyFrom picks up incremental verification from a checkpoint:
	// verify the prefix once, then verify only the suffix appended by
	// the next revision.
	ledger := dist.Ledger()
	if ledger.Len() != 2 {
		t.Fatalf("ledger has %d entries, want 2", ledger.Len())
	}
	if err := ledger.Verify(); err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
	mark := ledger.Len()
	tip := ledger.Entries()[mark-1].Hash

	if _, err := dist.Publish(distPolicies(t, 3, "r2")); err != nil {
		t.Fatalf("Publish r2: %v", err)
	}
	settle(t, dist.col)
	if ledger.Len() != 4 {
		t.Fatalf("ledger has %d entries after r2, want 4", ledger.Len())
	}
	if err := ledger.VerifyFrom(mark, tip); err != nil {
		t.Fatalf("incremental ledger verify from %d: %v", mark, err)
	}
}

func TestDistributorFailClosedPush(t *testing.T) {
	c, dist, bus := distFixture(t)
	if _, err := dist.Publish(distPolicies(t, 3, "r1")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	settle(t, dist.col)

	// A tampered re-signed push (rogue key) reaches d1 through the
	// normal transport and must be refused with the device unmoved.
	bad, err := dist.roots[0].pub.Full()
	if err != nil {
		t.Fatal(err)
	}
	bad.Manifest.Revision = 99
	bad.Manifest.Root = bundle.ComputeRoot(bad.Manifest)
	bad.SignWith(bundle.HMACKey{ID: "rogue", Secret: []byte("rogue")})
	data, _ := bundle.Encode(bad)
	if err := bus.Send(network.Message{From: "attacker", To: "d1", Topic: TopicBundle, Payload: data}); err != nil {
		t.Fatalf("send: %v", err)
	}
	settle(t, dist.col)

	d, _ := c.Device("d1")
	if got := d.Policies().Revision(); got != 1 {
		t.Fatalf("d1 moved to revision %d after tampered push", got)
	}
	var rejected []audit.Entry
	for _, e := range c.Audit().ByKind(audit.KindBundle) {
		if e.Detail == "bundle.rejected" {
			rejected = append(rejected, e)
		}
	}
	if len(rejected) != 1 || rejected[0].Context["cause"] != "signature" {
		t.Fatalf("rejection audit = %+v, want one signature rejection", rejected)
	}
	// The rejection was reported back and ledgered too.
	var ledgered bool
	for _, e := range dist.Ledger().Entries() {
		if e.Actor == "d1" && e.Context["applied"] == "false" && e.Context["cause"] == "signature" {
			ledgered = true
		}
	}
	if !ledgered {
		t.Fatal("rejection status report missing from activation ledger")
	}
}

func TestDistributorRepairAfterOneWayPartition(t *testing.T) {
	stuckReports := 0
	_, dist, bus := distFixture(t, func(cfg *DistributorConfig) {
		cfg.StuckThreshold = 2
		cfg.OnStuck = func(string) { stuckReports++ }
	})
	if _, err := dist.Publish(distPolicies(t, 3, "r1")); err != nil {
		t.Fatalf("Publish r1: %v", err)
	}
	settle(t, dist.col)

	// Asymmetric failure: d2 can hear the distributor but not answer.
	// The push succeeds, the ack dies — the distributor must keep
	// repairing, and d2 keeps re-acking into the void without ever
	// re-activating (stale re-pushes are no-ops).
	bus.PartitionOneWay([]string{"d2"}, []string{dist.id})
	if _, err := dist.Publish(distPolicies(t, 3, "r2")); err != nil {
		t.Fatalf("Publish r2: %v", err)
	}
	settle(t, dist.col)
	d2, _ := dist.col.Device("d2")
	if got := d2.Policies().Revision(); got != 2 {
		t.Fatalf("d2 at revision %d, want 2 (push direction is open)", got)
	}
	if got := dist.AckedRevision("d2"); got != 1 {
		t.Fatalf("distributor believes d2 acked %d, want 1 (ack direction is blocked)", got)
	}
	if lag := dist.Lagging(); len(lag) != 1 || lag[0] != "d2" {
		t.Fatalf("lagging = %v, want [d2]", lag)
	}

	// Repair past the stuck threshold escalates exactly once.
	for i := 0; i < 4; i++ {
		dist.RepairSweep()
		settle(t, dist.col)
	}
	if stuckReports != 1 {
		t.Fatalf("OnStuck fired %d times, want 1", stuckReports)
	}
	if st := dist.Stuck(); len(st) != 1 || st[0] != "d2" {
		t.Fatalf("stuck = %v, want [d2]", st)
	}

	// Healing the asymmetry lets the next repair's re-ack through; the
	// device never re-activated (revision still 2), and the stall clears.
	bus.HealOneWay()
	dist.RepairSweep()
	settle(t, dist.col)
	if !dist.Converged() {
		t.Fatalf("not converged after heal; lagging %v", dist.Lagging())
	}
	if got := d2.Policies().Revision(); got != 2 {
		t.Fatalf("d2 re-activated to %d, want to stay at 2", got)
	}
	if len(dist.Stuck()) != 0 {
		t.Fatalf("stuck flag not cleared: %v", dist.Stuck())
	}
}

func TestDistributorGapTriggersPullRepair(t *testing.T) {
	c, dist, bus := distFixture(t)
	for _, tag := range []string{"r1", "r2", "r3"} {
		if _, err := dist.Publish(distPolicies(t, 3, tag)); err != nil {
			t.Fatalf("Publish %s: %v", tag, err)
		}
		settle(t, dist.col)
	}
	// Simulate a misdirected delta: d1 is at revision 3; wind it back by
	// enrolling a fresh member and sending it a delta cut against
	// revision 2 — an unbridgeable gap for a device at revision 0.
	if err := c.AddDevice(newMember(t, c, "d3", 10), nil); err != nil {
		t.Fatal(err)
	}
	if err := dist.Enroll("d3", distKey()); err != nil {
		t.Fatal(err)
	}
	delta, ok := dist.roots[0].pub.DeltaFrom(2)
	if !ok {
		t.Fatal("DeltaFrom(2) failed")
	}
	data, _ := bundle.Encode(delta)
	if err := bus.Send(network.Message{From: dist.id, To: "d3", Topic: TopicBundle, Payload: data}); err != nil {
		t.Fatalf("send: %v", err)
	}
	settle(t, dist.col)
	// The gap rejection triggered a pull, the pull triggered a full
	// repair push, and d3 converged — all within one settle.
	d3, _ := c.Device("d3")
	if got := d3.Policies().Revision(); got != 3 {
		t.Fatalf("d3 at revision %d after pull repair, want 3", got)
	}
	if got := dist.AckedRevision("d3"); got != 3 {
		t.Fatalf("distributor has d3 acked at %d, want 3", got)
	}
}

// A forged ack — payload claiming another device's identity — must not
// advance the claimed device's recorded revision: before the fix, a
// compromised device could mask a lagging peer from RepairSweep
// forever by acking on its behalf.
func TestDistributorForgedAckDoesNotMaskLaggingDevice(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, dist, bus := distFixture(t, func(cfg *DistributorConfig) { cfg.Telemetry = reg })
	if _, err := dist.Publish(distPolicies(t, 3, "r1")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	settle(t, dist.col)
	// d2 goes fully dark and misses revision 2.
	bus.Partition(map[string]int{"d2": 1})
	if _, err := dist.Publish(distPolicies(t, 3, "r2")); err != nil {
		t.Fatalf("Publish r2: %v", err)
	}
	settle(t, dist.col)
	if lag := dist.Lagging(); len(lag) != 1 || lag[0] != "d2" {
		t.Fatalf("lagging = %v, want [d2]", lag)
	}

	// d1 (compromised) forges an ack in d2's name claiming revision 2.
	forged := BundleAck{Device: "d2", Revision: 2, Applied: true}
	if err := bus.Send(network.Message{From: "d1", To: dist.id, Topic: TopicBundleAck, Payload: forged}); err != nil {
		t.Fatalf("send forged ack: %v", err)
	}
	settle(t, dist.col)
	if got := dist.AckedRevision("d2"); got != 1 {
		t.Fatalf("forged ack advanced d2 to %d, want 1", got)
	}
	if lag := dist.Lagging(); len(lag) != 1 || lag[0] != "d2" {
		t.Fatalf("forged ack masked d2 from repair; lagging = %v, want [d2]", lag)
	}
	if got := reg.Counter("bundle.forged_report", "topic", TopicBundleAck).Value(); got != 1 {
		t.Fatalf("forged_report{bundle_ack} = %d, want 1", got)
	}
	var audited bool
	for _, e := range c.Audit().ByKind(audit.KindBundle) {
		if e.Detail == "bundle.forged_report" && e.Context["claimed"] == "d2" && e.Context["from"] == "d1" {
			audited = true
		}
	}
	if !audited {
		t.Fatal("forged ack not audited")
	}

	// And the heal-side proof: d2 is still repairable.
	bus.Heal()
	dist.RepairSweep()
	settle(t, dist.col)
	if !dist.Converged() {
		t.Fatalf("not converged after heal; lagging %v", dist.Lagging())
	}
}

// A forged pull — payload claiming another device — is dropped and
// counted instead of triggering repair traffic on the victim's behalf.
func TestDistributorForgedPullDropped(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, dist, bus := distFixture(t, func(cfg *DistributorConfig) { cfg.Telemetry = reg })
	if _, err := dist.Publish(distPolicies(t, 3, "r1")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	settle(t, dist.col)
	pushedBefore := reg.Counter("bundle.pushed").Value()
	if err := bus.Send(network.Message{From: "d1", To: dist.id, Topic: TopicBundlePull, Payload: BundlePull{Device: "d2", Have: 0}}); err != nil {
		t.Fatalf("send forged pull: %v", err)
	}
	settle(t, dist.col)
	if got := reg.Counter("bundle.forged_report", "topic", TopicBundlePull).Value(); got != 1 {
		t.Fatalf("forged_report{bundle_pull} = %d, want 1", got)
	}
	if got := reg.Counter("bundle.pushed").Value(); got != pushedBefore {
		t.Fatalf("forged pull triggered a push (%d -> %d)", pushedBefore, got)
	}
}

// A bundle-plane message with a payload of the wrong type is counted
// and audited, not silently dropped — on both the device side (push
// payload) and the distributor side (ack/pull payload).
func TestDistributorBadPayloadCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, dist, bus := distFixture(t, func(cfg *DistributorConfig) { cfg.Telemetry = reg })
	if _, err := dist.Publish(distPolicies(t, 3, "r1")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	settle(t, dist.col)
	if err := bus.Send(network.Message{From: dist.id, To: "d1", Topic: TopicBundle, Payload: 42}); err != nil {
		t.Fatalf("send: %v", err)
	}
	settle(t, dist.col)
	if err := bus.Send(network.Message{From: "d1", To: dist.id, Topic: TopicBundleAck, Payload: "not an ack"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	settle(t, dist.col)
	if err := bus.Send(network.Message{From: "d1", To: dist.id, Topic: TopicBundlePull, Payload: 7}); err != nil {
		t.Fatalf("send: %v", err)
	}
	settle(t, dist.col)
	if got := reg.Counter("bundle.bad_payload").Value(); got != 3 {
		t.Fatalf("bad_payload = %d, want 3", got)
	}
	var audited int
	for _, e := range c.Audit().ByKind(audit.KindBundle) {
		if e.Detail == "bundle.bad_payload" {
			audited++
		}
	}
	if audited != 3 {
		t.Fatalf("bad_payload audited %d times, want 3", audited)
	}
}

// An encode failure during fan-out is counted and audited — the seam
// stands in for a marshal failure that cannot realistically happen
// with the current wire types.
func TestDistributorEncodeFailureCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, dist, _ := distFixture(t, func(cfg *DistributorConfig) { cfg.Telemetry = reg })
	orig := encodeBundle
	encodeBundle = func(bundle.Bundle) ([]byte, error) { return nil, errStubEncode }
	defer func() { encodeBundle = orig }()

	if _, err := dist.Publish(distPolicies(t, 3, "r1")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	settle(t, dist.col)
	if got := reg.Counter("bundle.encode_failed", "root", "default").Value(); got != 2 {
		t.Fatalf("encode_failed = %d, want 2 (one per device)", got)
	}
	if got := reg.Counter("bundle.pushed").Value(); got != 0 {
		t.Fatalf("pushed = %d after failed encodes, want 0", got)
	}
	var audited int
	for _, e := range c.Audit().ByKind(audit.KindBundle) {
		if e.Detail == "bundle.encode_failed" {
			audited++
		}
	}
	if audited != 2 {
		t.Fatalf("encode_failed audited %d times, want 2", audited)
	}
}

var errStubEncode = errors.New("stub encode failure")

// multiRootFixture wires two org roots ("us", "uk") over four devices,
// two subscribed to each root, with per-device keyrings scoping each
// org's key to its own prefix.
func multiRootFixture(t *testing.T) (*Collective, *Distributor, *telemetry.Registry) {
	t.Helper()
	bus := engineBus(7)
	c := newCollective(t, func(cfg *Config) { cfg.Bus = bus })
	for _, id := range []string{"us-0", "us-1", "uk-0", "uk-1"} {
		if err := c.AddDevice(newMember(t, c, id, 10), nil); err != nil {
			t.Fatalf("AddDevice %s: %v", id, err)
		}
	}
	usKey := bundle.HMACKey{ID: "us-root", Secret: []byte("us secret")}
	ukKey := bundle.HMACKey{ID: "uk-root", Secret: []byte("uk secret")}
	reg := telemetry.NewRegistry()
	dist, err := NewDistributor(DistributorConfig{
		Collective: c,
		Telemetry:  reg,
		Roots: []RootConfig{
			{Org: "us", Signer: usKey},
			{Org: "uk", Signer: ukKey},
		},
	})
	if err != nil {
		t.Fatalf("NewDistributor: %v", err)
	}
	ring := bundle.NewKeyRing().
		Add(usKey.ID, usKey, bundle.Scope{Org: "us"}).
		Add(ukKey.ID, ukKey, bundle.Scope{Org: "uk"})
	for _, id := range []string{"us-0", "us-1"} {
		if err := dist.EnrollRoots(id, ring, "us"); err != nil {
			t.Fatalf("EnrollRoots %s: %v", id, err)
		}
	}
	for _, id := range []string{"uk-0", "uk-1"} {
		if err := dist.EnrollRoots(id, ring, "uk"); err != nil {
			t.Fatalf("EnrollRoots %s: %v", id, err)
		}
	}
	return c, dist, reg
}

func orgPolicies(t *testing.T, org, tag string, n int) []policy.Policy {
	t.Helper()
	var src string
	for i := 0; i < n; i++ {
		src += "policy " + org + ".p" + string(rune('a'+i)) + " priority " + strconv.Itoa(i+1) +
			":\n    on task\n    when intensity > 0\n    do work target " + tag + " category surveillance\n"
	}
	pols, err := policylang.CompileSource(src, policy.OriginHuman)
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	return pols
}

// Two org roots publish independently: each root's subscribers
// converge on their own revision stream, the other root's devices are
// untouched, and each root keeps its own ledger segment.
func TestDistributorMultiRootIndependentStreams(t *testing.T) {
	c, dist, _ := multiRootFixture(t)
	if _, err := dist.PublishRoot("us", orgPolicies(t, "us", "r1", 2)); err != nil {
		t.Fatalf("PublishRoot us: %v", err)
	}
	settle(t, dist.col)
	if _, err := dist.PublishRoot("uk", orgPolicies(t, "uk", "r1", 3)); err != nil {
		t.Fatalf("PublishRoot uk: %v", err)
	}
	settle(t, dist.col)
	if _, err := dist.PublishRoot("uk", orgPolicies(t, "uk", "r2", 3)); err != nil {
		t.Fatalf("PublishRoot uk r2: %v", err)
	}
	settle(t, dist.col)
	if got := dist.RootRevision("us"); got != 1 {
		t.Fatalf("us revision %d, want 1", got)
	}
	if got := dist.RootRevision("uk"); got != 2 {
		t.Fatalf("uk revision %d, want 2", got)
	}
	if !dist.Converged() {
		t.Fatalf("not converged; lagging %v", dist.Lagging())
	}
	for id, want := range map[string]uint64{"us-0": 1, "us-1": 1, "uk-0": 2, "uk-1": 2} {
		d, _ := c.Device(id)
		if got := d.Policies().Revision(); got != want {
			t.Fatalf("%s at revision %d, want %d", id, got, want)
		}
	}
	us, _ := c.Device("us-0")
	if got := us.Policies().OrgRevision("uk"); got != 0 {
		t.Fatalf("us-0 has uk stream at %d, want 0", got)
	}
	if got := us.Policies().Len(); got != 2 {
		t.Fatalf("us-0 holds %d policies, want 2", got)
	}
	// Ledger segments are per root: each holds only its own
	// subscribers' acks.
	if got := dist.RootLedger("us").Len(); got != 2 {
		t.Fatalf("us ledger has %d entries, want 2", got)
	}
	if got := dist.RootLedger("uk").Len(); got != 4 {
		t.Fatalf("uk ledger has %d entries, want 4", got)
	}
}

// A bundle published on one root never crosses to the other root's
// subscribers, and a cross-org push signed by the right key but
// claiming the wrong stream is refused with cause scope.
func TestDistributorMultiRootScopeRefusal(t *testing.T) {
	c, dist, reg := multiRootFixture(t)
	if _, err := dist.PublishRoot("us", orgPolicies(t, "us", "r1", 2)); err != nil {
		t.Fatalf("PublishRoot us: %v", err)
	}
	settle(t, dist.col)
	// The us root's bundle, replayed at a uk device: the uk device is
	// not subscribed to the us stream, so the push dies as a scope
	// refusal before verification.
	full, err := dist.roots[0].pub.Full()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := bundle.Encode(full)
	if err := c.bus.Send(network.Message{From: dist.id, To: "uk-0", Topic: TopicBundle, Payload: data}); err != nil {
		t.Fatalf("send: %v", err)
	}
	settle(t, dist.col)
	uk, _ := c.Device("uk-0")
	if got := uk.Policies().Len(); got != 0 {
		t.Fatalf("uk-0 holds %d policies after cross-root push, want 0", got)
	}
	if got := reg.Counter("bundle.rejected", "cause", "scope").Value(); got != 1 {
		t.Fatalf("rejected{scope} = %d, want 1", got)
	}
	if got := reg.Counter("bundle.scope_rejected", "root", "us").Value(); got != 1 {
		t.Fatalf("scope_rejected{us} = %d, want 1", got)
	}
}
