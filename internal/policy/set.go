package policy

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ontology"
	"repro/internal/telemetry"
)

// CategoryMatcher decides whether an action of category got is covered
// by a forbid-policy over category want. The default is equality; a
// taxonomy-backed matcher (got is-a want) can be injected.
type CategoryMatcher func(got, want ontology.Concept) bool

// Decision is the outcome of evaluating one event against a policy
// set.
type Decision struct {
	// Actions are the directed actions in execution order
	// (deterministic: priority descending, then policy ID).
	Actions []Action
	// Matched lists the IDs of every policy that matched, including
	// forbid policies.
	Matched []string
	// Vetoed records actions directed by matching do-policies but
	// blocked by a forbid-policy, keyed by the do-policy ID, with the
	// forbidding policy's ID as value. It is nil when nothing was
	// vetoed.
	Vetoed map[string]string
}

// Conflict is a statically detected potential conflict between two
// policies in a set.
type Conflict struct {
	A, B   string
	Reason string
}

// String renders the conflict.
func (c Conflict) String() string {
	return fmt.Sprintf("%s vs %s: %s", c.A, c.B, c.Reason)
}

// Set is a collection of policies with deterministic evaluation. It is
// safe for concurrent use.
//
// Set is the mutation facade of the decision plane: Add, Replace and
// Remove update the live map and invalidate the published Snapshot;
// the first subsequent reader compiles a fresh snapshot and publishes
// it through an atomic pointer. Evaluate therefore takes no lock in
// the steady state and its cost scales with the policies that can
// match the event, not the size of the set.
type Set struct {
	mu       sync.RWMutex
	policies map[string]Policy
	matchCat CategoryMatcher

	snap  atomic.Pointer[Snapshot]
	instr atomic.Pointer[setInstruments]
	stats struct {
		epoch        uint64
		compiles     uint64
		lastCompile  time.Duration
		totalCompile time.Duration
	}
	// revision is the policy-distribution revision the set last
	// activated (0 = never revision-managed). It is stamped onto every
	// snapshot compiled from the set, so a reader can tell which
	// coherent revision it is evaluating under. With multiple org
	// roots it is the stamp of whichever root applied last; orgRevs
	// carries the per-root streams.
	revision uint64
	// orgRevs tracks the activated revision per org root ("" = the
	// single-root stream). Each root's stream is independently strictly
	// monotonic, so two coalition roots can advance without racing each
	// other's numbers. Lazily allocated.
	orgRevs map[string]uint64
	// resStats accounts residual specialization across the set's
	// lifetime; every compiled snapshot shares it so counters survive
	// invalidation.
	resStats residualStats
}

// SetOption configures a Set.
type SetOption interface {
	apply(*Set)
}

type catMatcherOption struct{ m CategoryMatcher }

func (o catMatcherOption) apply(s *Set) { s.matchCat = o.m }

// WithCategoryMatcher injects the matcher used to decide whether a
// forbid-by-category policy covers an action.
func WithCategoryMatcher(m CategoryMatcher) SetOption {
	return catMatcherOption{m: m}
}

// TaxonomyMatcher builds a CategoryMatcher from a taxonomy: an action
// category is covered when it is-a the forbidden category.
func TaxonomyMatcher(t *ontology.Taxonomy) CategoryMatcher {
	return func(got, want ontology.Concept) bool { return t.IsA(got, want) }
}

// setInstruments bundles the decision-plane telemetry handles. They
// are resolved once in Instrument; the hot path only nil-checks.
type setInstruments struct {
	evaluateMS *telemetry.Histogram
	epoch      *telemetry.Gauge
	compiles   *telemetry.Gauge
	compileMS  *telemetry.Gauge
}

// Instrument publishes the set's decision-plane metrics into the
// registry under policy.epoch, policy.compiles, policy.compile_ms
// (gauges), policy.evaluate_ms (a latency histogram), the
// policy.residual_compiles / policy.residual_hits /
// policy.residual_misses specialization counters and the
// policy.residual_size gauge, all carrying the given labels (typically
// "device", <id>). It replaces the ad-hoc per-device gauge names of
// earlier revisions. Instrumenting forces one recompile so the
// published snapshot carries the evaluate timer; a nil registry
// removes instrumentation.
func (s *Set) Instrument(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		s.instr.Store(nil)
		s.resStats.instr.Store(nil)
		s.snap.Store(nil)
		return
	}
	s.instr.Store(&setInstruments{
		evaluateMS: reg.Histogram("policy.evaluate_ms", labels...),
		epoch:      reg.Gauge("policy.epoch", labels...),
		compiles:   reg.Gauge("policy.compiles", labels...),
		compileMS:  reg.Gauge("policy.compile_ms", labels...),
	})
	s.resStats.instr.Store(&residualInstruments{
		compiles: reg.Counter("policy.residual_compiles", labels...),
		hits:     reg.Counter("policy.residual_hits", labels...),
		misses:   reg.Counter("policy.residual_misses", labels...),
		size:     reg.Gauge("policy.residual_size", labels...),
	})
	s.snap.Store(nil)
}

// NewSet returns an empty policy set.
func NewSet(opts ...SetOption) *Set {
	s := &Set{
		policies: make(map[string]Policy),
		matchCat: func(got, want ontology.Concept) bool { return got == want },
	}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Add validates and inserts a policy. A policy with a duplicate ID is
// rejected.
func (s *Set) Add(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.policies[p.ID]; dup {
		return fmt.Errorf("%w: duplicate ID %s", ErrInvalidPolicy, p.ID)
	}
	s.policies[p.ID] = p
	s.snap.Store(nil)
	return nil
}

// AddBatch validates and inserts a batch of policies under one lock
// and one snapshot invalidation — the bulk-adoption path for the
// generative layer, which may instantiate many policies per
// discovery. The batch is all-or-nothing: any invalid or duplicate
// policy rejects the whole batch before anything is inserted.
func (s *Set) AddBatch(ps []Policy) error {
	seen := make(map[string]bool, len(ps))
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.ID] {
			return fmt.Errorf("%w: duplicate ID %s in batch", ErrInvalidPolicy, p.ID)
		}
		seen[p.ID] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range ps {
		if _, dup := s.policies[p.ID]; dup {
			return fmt.Errorf("%w: duplicate ID %s", ErrInvalidPolicy, p.ID)
		}
	}
	for _, p := range ps {
		s.policies[p.ID] = p
	}
	if len(ps) > 0 {
		s.snap.Store(nil)
	}
	return nil
}

// Replace validates and inserts a policy, overwriting any existing one
// with the same ID. It is the mutation path for reprogramming attacks
// and generative updates.
func (s *Set) Replace(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policies[p.ID] = p
	s.snap.Store(nil)
	return nil
}

// ReplaceBatch validates and upserts a batch of policies under one
// lock and one snapshot invalidation. The batch is all-or-nothing on
// validation failure.
func (s *Set) ReplaceBatch(ps []Policy) error {
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range ps {
		s.policies[p.ID] = p
	}
	if len(ps) > 0 {
		s.snap.Store(nil)
	}
	return nil
}

// ApplyRevision atomically replaces the set's contents with a
// distributed policy revision: upserts are validated and installed,
// removals deleted, and the revision number recorded, all under one
// lock and one snapshot invalidation. Readers therefore never observe
// a state mixing two revisions — the next Snapshot compiles the fully
// applied revision, and every snapshot carries the revision it was
// compiled from (Snapshot.Revision). The revision must be strictly
// greater than the current one; the batch is all-or-nothing on
// validation failure.
func (s *Set) ApplyRevision(revision uint64, upserts []Policy, removals []string) error {
	return s.ApplyOrgRevision("", revision, upserts, removals)
}

// ApplyOrgRevision is ApplyRevision for one org root's revision
// stream: each root advances its own strictly monotonic revision
// counter, so two coalition roots can install policy on the same
// device without contending over a single number. The set-wide
// Revision() becomes the stamp of whichever root applied last.
func (s *Set) ApplyOrgRevision(org string, revision uint64, upserts []Policy, removals []string) error {
	seen := make(map[string]bool, len(upserts))
	for _, p := range upserts {
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.ID] {
			return fmt.Errorf("%w: duplicate ID %s in revision", ErrInvalidPolicy, p.ID)
		}
		seen[p.ID] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if active := s.orgRevs[org]; revision <= active {
		return fmt.Errorf("policy: revision %d is not newer than active revision %d (root %q)", revision, active, org)
	}
	for _, id := range removals {
		delete(s.policies, id)
	}
	for _, p := range upserts {
		s.policies[p.ID] = p
	}
	if s.orgRevs == nil {
		s.orgRevs = make(map[string]uint64, 2)
	}
	s.orgRevs[org] = revision
	s.revision = revision
	s.snap.Store(nil)
	return nil
}

// Revision returns the distribution revision the set last activated
// (0 = never revision-managed).
func (s *Set) Revision() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.revision
}

// OrgRevision returns the revision last activated from one org root's
// stream (0 = never).
func (s *Set) OrgRevision(org string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.orgRevs[org]
}

// OrgRevisions returns a copy of every root's activated revision,
// keyed by org ("" = the single-root stream). Nil when the set was
// never revision-managed.
func (s *Set) OrgRevisions() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.orgRevs) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(s.orgRevs))
	for org, rev := range s.orgRevs {
		out[org] = rev
	}
	return out
}

// Remove deletes a policy by ID and reports whether it existed.
func (s *Set) Remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.policies[id]
	if ok {
		delete(s.policies, id)
		s.snap.Store(nil)
	}
	return ok
}

// Invalidate discards the published snapshot so the next reader
// recompiles. Call it after mutating an injected dependency the
// compiled coverage table depends on (e.g. adding is-a edges to the
// taxonomy behind the category matcher).
func (s *Set) Invalidate() {
	s.snap.Store(nil)
}

// Get returns the policy with the given ID.
func (s *Set) Get(id string) (Policy, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.policies[id]
	return p, ok
}

// Len returns the number of policies.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.policies)
}

// All returns every policy ordered by descending priority then ID.
func (s *Set) All() []Policy {
	return s.Snapshot().Policies()
}

// Snapshot returns the current compiled snapshot, compiling one if a
// mutation invalidated it. The returned snapshot is immutable; callers
// may evaluate against it repeatedly for a consistent view of the
// policies regardless of concurrent mutations.
func (s *Set) Snapshot() *Snapshot {
	if snap := s.snap.Load(); snap != nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := s.snap.Load(); snap != nil {
		return snap
	}
	s.stats.epoch++
	snap := compileSnapshot(s.sortedLocked(), s.matchCat, s.stats.epoch)
	snap.revision = s.revision
	snap.resStats = &s.resStats
	s.stats.compiles++
	s.stats.lastCompile = snap.compileTime
	s.stats.totalCompile += snap.compileTime
	if in := s.instr.Load(); in != nil {
		snap.evalMS = in.evaluateMS
		in.epoch.Set(float64(s.stats.epoch))
		in.compiles.Set(float64(s.stats.compiles))
		in.compileMS.Set(float64(snap.compileTime.Nanoseconds()) / 1e6)
	}
	s.snap.Store(snap)
	return snap
}

// SetStats describes the compilation activity of the decision plane.
type SetStats struct {
	// Epoch is the most recently compiled snapshot's epoch.
	Epoch uint64
	// Compiles counts snapshot compilations over the set's lifetime.
	Compiles uint64
	// LastCompile and TotalCompile measure compilation latency.
	LastCompile  time.Duration
	TotalCompile time.Duration
	// Policies is the current policy count.
	Policies int
	// ResidualCompiles / ResidualHits / ResidualMisses count
	// specialization activity over the set's lifetime: how many
	// residual snapshots were actually built versus served from the
	// per-snapshot cache.
	ResidualCompiles uint64
	ResidualHits     uint64
	ResidualMisses   uint64
}

// Stats returns compilation counters for the control-plane metrics.
func (s *Set) Stats() SetStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return SetStats{
		Epoch:            s.stats.epoch,
		Compiles:         s.stats.compiles,
		LastCompile:      s.stats.lastCompile,
		TotalCompile:     s.stats.totalCompile,
		Policies:         len(s.policies),
		ResidualCompiles: s.resStats.compiles.Load(),
		ResidualHits:     s.resStats.hits.Load(),
		ResidualMisses:   s.resStats.misses.Load(),
	}
}

func (s *Set) sortedLocked() []Policy {
	out := make([]Policy, 0, len(s.policies))
	for _, p := range s.policies {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b Policy) int {
		if a.Priority != b.Priority {
			return cmp.Compare(b.Priority, a.Priority)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// Evaluate matches the environment against the set. Matching
// forbid-policies veto actions of matching do-policies with lower or
// equal priority; surviving actions are returned in deterministic
// order. It evaluates against the compiled snapshot — lock-free unless
// a mutation just invalidated it.
func (s *Set) Evaluate(env Env) Decision {
	return s.Snapshot().Evaluate(env)
}

// Conflicts statically reports potential conflicts: a do-policy and a
// forbid-policy on overlapping event types whose actions overlap (the
// forbid would veto the do whenever both match), and duplicate
// do-policies directing the same action at the same priority. Only
// pairs whose event types can overlap are compared, so disjoint
// policies cost nothing.
func (s *Set) Conflicts() []Conflict {
	return s.Snapshot().Conflicts()
}

func eventTypesOverlap(a, b string) bool {
	return a == b || a == WildcardEvent || b == WildcardEvent
}
