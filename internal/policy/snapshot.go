package policy

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Snapshot is an immutable, compiled view of a Set — the read side of
// the decision plane. Mutations on the Set invalidate the published
// snapshot; the next reader compiles a fresh one (pre-sorted policies,
// per-event-type indexes, and a forbid-coverage table resolved through
// the category matcher at compile time) and publishes it through an
// atomic pointer, so Evaluate is lock-free and touches only the
// policies that can match the event.
//
// A Snapshot pins the category matcher's answers at compile time: if
// an injected taxonomy gains edges after compilation, call
// Set.Invalidate to force a recompile.
type Snapshot struct {
	epoch uint64
	// epochStr is the decimal rendering of epoch, precomputed so hot
	// audit paths can stamp the policy epoch without formatting.
	epochStr string
	// revision is the policy-distribution revision the owning Set had
	// activated when this snapshot compiled (0 = unmanaged). Because
	// ApplyRevision installs a whole revision under one lock and one
	// invalidation, every snapshot's policies belong to exactly one
	// revision — never a mix.
	revision uint64
	matchCat CategoryMatcher
	// sorted holds every policy in global evaluation order (priority
	// descending, then ID ascending). A policy's position in this
	// slice is its index in the bucket and coverage tables below.
	sorted []compiledPolicy
	// exact maps each concrete event type to the ascending indices of
	// its policies; wildcard holds the indices of WildcardEvent
	// policies. Merging a bucket with wildcard by index recovers the
	// global order.
	exact    map[string][]int32
	wildcard []int32
	// compileTime is how long compilation took (exposed for the
	// control-plane metrics).
	compileTime time.Duration
	// evalMS, when the owning Set is instrumented, times every
	// Evaluate. Nil (the default) costs the hot path one branch.
	evalMS *telemetry.Histogram
	// res1 is the single-slot front of the residual cache: most
	// snapshots — per-device sets in particular — are only ever
	// specialized for one profile, and the slot spares them the
	// sync.Map entry (an allocation per device at fleet scale).
	res1 atomic.Pointer[Residual]
	// residuals caches further *Residual specializations of this
	// snapshot by profile fingerprint. Because mutations discard the
	// whole snapshot, both cache tiers are invalidated atomically with
	// it — residuals can never mix epochs.
	residuals sync.Map
	// resStats, when the owning Set exists, accounts specialization
	// activity across the set's lifetime (shared by all its snapshots).
	resStats *residualStats
	// residualFP, on specialized snapshots, is the profile fingerprint
	// they were specialized for ("" on full snapshots).
	residualFP string
}

// compiledPolicy is one policy plus its decision-plane
// precomputations.
type compiledPolicy struct {
	Policy
	// cond is the compiled form of Condition (namespaces pre-resolved,
	// schema indexes cached); nil means the policy always matches. The
	// interpreted Condition is retained for Describe/decompilation.
	cond evalCond
	// coveringForbids lists, in global order, the indices of forbid
	// policies that could veto this do-policy: equal-or-higher
	// priority, overlapping event type, and a pattern covering the
	// action under the snapshot's category matcher.
	coveringForbids []int32
}

// compileSnapshot builds a snapshot from the sorted policies.
func compileSnapshot(sorted []Policy, matchCat CategoryMatcher, epoch uint64) *Snapshot {
	start := time.Now()
	snap := &Snapshot{
		epoch:    epoch,
		epochStr: strconv.FormatUint(epoch, 10),
		matchCat: matchCat,
		sorted:   make([]compiledPolicy, len(sorted)),
		exact:    make(map[string][]int32),
	}
	var forbids []int32
	for i, p := range sorted {
		snap.sorted[i] = compiledPolicy{Policy: p, cond: compileCond(p.Condition)}
		if p.EventType == WildcardEvent {
			snap.wildcard = append(snap.wildcard, int32(i))
		} else {
			snap.exact[p.EventType] = append(snap.exact[p.EventType], int32(i))
		}
		if p.Modality == ModalityForbid {
			forbids = append(forbids, int32(i))
		}
	}
	if len(forbids) > 0 {
		for i := range snap.sorted {
			d := &snap.sorted[i]
			if d.Modality == ModalityForbid {
				continue
			}
			for _, fi := range forbids {
				fb := &snap.sorted[fi].Policy
				if fb.Priority < d.Priority {
					continue
				}
				if !eventTypesOverlap(d.EventType, fb.EventType) {
					continue
				}
				if snap.covers(fb, d.Action) {
					d.coveringForbids = append(d.coveringForbids, fi)
				}
			}
		}
	}
	snap.compileTime = time.Since(start)
	return snap
}

// covers reports whether the forbid policy's pattern covers the
// action: by name when the pattern names one, by category otherwise.
func (s *Snapshot) covers(fb *Policy, a Action) bool {
	if fb.Action.Name != "" {
		return fb.Action.Name == a.Name
	}
	return s.matchCat(a.Category, fb.Action.Category)
}

// Epoch identifies this compilation; it increases with every
// recompile of the owning Set.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// EpochString returns the precomputed decimal form of Epoch.
func (s *Snapshot) EpochString() string { return s.epochStr }

// Revision returns the distribution revision this snapshot was
// compiled from (0 = the set is not revision-managed).
func (s *Snapshot) Revision() uint64 { return s.revision }

// Len returns the number of policies in the snapshot.
func (s *Snapshot) Len() int { return len(s.sorted) }

// CompileTime reports how long this snapshot took to compile.
func (s *Snapshot) CompileTime() time.Duration { return s.compileTime }

// Policies returns a copy of every policy in evaluation order.
func (s *Snapshot) Policies() []Policy {
	out := make([]Policy, len(s.sorted))
	for i := range s.sorted {
		out[i] = s.sorted[i].Policy
	}
	return out
}

// scratch is the pooled per-evaluation working memory.
type scratch struct {
	matched []int32
	forbids []int32
	// vetoes holds (do index, forbid index) pairs, interleaved, so
	// the Vetoed map can be allocated at its exact size.
	vetoes []int32
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// Evaluate matches the environment against the snapshot. It is
// lock-free, allocates only for the returned Decision, and visits only
// the policies indexed under the event's type (plus wildcards). The
// result is identical to evaluating the policies with a full linear
// scan (see evaluateLinear in snapshot_test.go). When the owning Set
// is instrumented, the evaluation latency lands in the
// policy.evaluate_ms histogram; uninstrumented snapshots pay one nil
// check.
func (s *Snapshot) Evaluate(env Env) Decision {
	if h := s.evalMS; h != nil {
		start := time.Now()
		d := s.evaluate(env)
		h.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
		return d
	}
	return s.evaluate(env)
}

// EvaluateInto evaluates like Evaluate but writes the decision into d,
// reusing the capacity of d.Matched and d.Actions across calls. It is
// the zero-steady-state-allocation form for per-device MAPE scratch:
// a caller that owns d and does not retain the slices between calls
// pays nothing once the slices have grown to their working size.
// d.Vetoed is reset to nil and allocated only when a veto occurs.
func (s *Snapshot) EvaluateInto(env Env, d *Decision) {
	d.Matched = d.Matched[:0]
	d.Actions = d.Actions[:0]
	d.Vetoed = nil
	if h := s.evalMS; h != nil {
		start := time.Now()
		s.evaluateInto(env, d)
		h.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
		return
	}
	s.evaluateInto(env, d)
}

func (s *Snapshot) evaluate(env Env) Decision {
	var d Decision
	s.evaluateInto(env, &d)
	return d
}

// evaluateInto appends results to d's (possibly pre-owned) slices; the
// caller has already reset them. Starting from nil slices this yields
// exactly the Decision the original one-shot evaluate produced.
func (s *Snapshot) evaluateInto(env Env, d *Decision) {
	bucket := s.exact[env.Event.Type]
	if len(bucket) == 0 && len(s.wildcard) == 0 {
		return
	}

	sc := scratchPool.Get().(*scratch)
	matched := sc.matched[:0]
	forbids := sc.forbids[:0]
	nDos := 0

	// Merge the event bucket with the wildcard bucket by ascending
	// index — both are pre-sorted, so this walks the candidates in
	// global evaluation order.
	i, j := 0, 0
	for i < len(bucket) || j < len(s.wildcard) {
		var idx int32
		if j >= len(s.wildcard) || (i < len(bucket) && bucket[i] < s.wildcard[j]) {
			idx = bucket[i]
			i++
		} else {
			idx = s.wildcard[j]
			j++
		}
		p := &s.sorted[idx]
		if p.cond != nil && !p.cond.holds(env) {
			continue
		}
		matched = append(matched, idx)
		if p.Modality == ModalityForbid {
			forbids = append(forbids, idx)
		} else {
			nDos++
		}
	}

	for _, idx := range matched {
		d.Matched = append(d.Matched, s.sorted[idx].ID)
	}
	vetoes := sc.vetoes[:0]
	if nDos > 0 {
		for _, idx := range matched {
			p := &s.sorted[idx]
			if p.Modality == ModalityForbid {
				continue
			}
			if fi, vetoed := firstCommon(p.coveringForbids, forbids); vetoed {
				vetoes = append(vetoes, idx, fi)
				continue
			}
			d.Actions = append(d.Actions, p.Action)
		}
		if len(vetoes) > 0 {
			d.Vetoed = make(map[string]string, len(vetoes)/2)
			for k := 0; k < len(vetoes); k += 2 {
				d.Vetoed[s.sorted[vetoes[k]].ID] = s.sorted[vetoes[k+1]].ID
			}
		}
	}

	sc.matched = matched
	sc.forbids = forbids
	sc.vetoes = vetoes
	scratchPool.Put(sc)
}

// firstCommon returns the smallest element present in both ascending
// slices. Because indices follow the global evaluation order, the
// first common covering forbid is exactly the forbid a linear scan
// would have picked.
func firstCommon(a, b []int32) (int32, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i], true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return 0, false
}

// ForbidsAction reports whether any forbid policy matching the
// environment covers the action, regardless of priority, and returns
// the forbidding policy's ID. Guards use it as a strict defense-in-
// depth check on actions that did not come through Evaluate (injected
// commands, direct actuator requests).
func (s *Snapshot) ForbidsAction(env Env, a Action) (string, bool) {
	bucket := s.exact[env.Event.Type]
	i, j := 0, 0
	for i < len(bucket) || j < len(s.wildcard) {
		var idx int32
		if j >= len(s.wildcard) || (i < len(bucket) && bucket[i] < s.wildcard[j]) {
			idx = bucket[i]
			i++
		} else {
			idx = s.wildcard[j]
			j++
		}
		p := &s.sorted[idx]
		if p.Modality != ModalityForbid {
			continue
		}
		if p.cond != nil && !p.cond.holds(env) {
			continue
		}
		if s.covers(&p.Policy, a) {
			return p.ID, true
		}
	}
	return "", false
}

// VetoesStatically reports whether a standing forbid policy would veto
// the candidate do-policy whenever both matched: equal-or-higher
// priority, overlapping event type, and a covering pattern. Oversight
// uses it to reject candidates that the compiled decision plane would
// never execute.
func (s *Snapshot) VetoesStatically(p Policy) (string, bool) {
	if p.Modality != ModalityDo {
		return "", false
	}
	for i := range s.sorted {
		fb := &s.sorted[i]
		if fb.Modality != ModalityForbid || fb.Priority < p.Priority {
			continue
		}
		if !eventTypesOverlap(p.EventType, fb.EventType) {
			continue
		}
		if s.covers(&fb.Policy, p.Action) {
			return fb.ID, true
		}
	}
	return "", false
}

// Conflicts statically reports potential conflicts between snapshot
// policies, comparing only pairs whose event types can overlap: each
// concrete event type's bucket is checked within itself and against
// the wildcard bucket, so fully disjoint policies are never compared.
// The output order matches a full pairwise scan in evaluation order.
func (s *Snapshot) Conflicts() []Conflict {
	var out []Conflict
	for i := range s.sorted {
		a := &s.sorted[i]
		if a.EventType == WildcardEvent {
			// A wildcard overlaps everything that follows it.
			for j := i + 1; j < len(s.sorted); j++ {
				s.pairConflict(&out, a, &s.sorted[j])
			}
			continue
		}
		// Later policies in the same bucket, merged with later
		// wildcards to preserve the pairwise scan's order.
		same := tailAfter(s.exact[a.EventType], int32(i))
		wild := tailAfter(s.wildcard, int32(i))
		si, wi := 0, 0
		for si < len(same) || wi < len(wild) {
			var idx int32
			if wi >= len(wild) || (si < len(same) && same[si] < wild[wi]) {
				idx = same[si]
				si++
			} else {
				idx = wild[wi]
				wi++
			}
			s.pairConflict(&out, a, &s.sorted[idx])
		}
	}
	return out
}

// pairConflict applies the conflict rules to one ordered pair.
func (s *Snapshot) pairConflict(out *[]Conflict, a, b *compiledPolicy) {
	doP, fbP := a, b
	if doP.Modality == ModalityForbid {
		doP, fbP = b, a
	}
	switch {
	case doP.Modality == ModalityDo && fbP.Modality == ModalityForbid:
		if fbP.Priority >= doP.Priority && s.covers(&fbP.Policy, doP.Action) {
			*out = append(*out, Conflict{
				A:      doP.ID,
				B:      fbP.ID,
				Reason: fmt.Sprintf("forbid %s covers do action %q on event %s", fbP.ID, doP.Action.Name, doP.EventType),
			})
		}
	case a.Modality == ModalityDo && b.Modality == ModalityDo:
		if a.Priority == b.Priority && a.Action.Name == b.Action.Name && a.Action.Target == b.Action.Target {
			*out = append(*out, Conflict{
				A:      a.ID,
				B:      b.ID,
				Reason: fmt.Sprintf("duplicate action %q at priority %d", a.Action.Name, a.Priority),
			})
		}
	}
}

// tailAfter returns the suffix of the ascending index slice holding
// values strictly greater than idx.
func tailAfter(indices []int32, idx int32) []int32 {
	lo, hi := 0, len(indices)
	for lo < hi {
		mid := (lo + hi) / 2
		if indices[mid] <= idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return indices[lo:]
}
