package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ontology"
)

// evaluateLinear is the reference implementation the snapshot path is
// differentially tested against: a full scan of the pre-sorted
// policies with per-event coverage resolution, byte-for-byte the
// behavior of the original Set.Evaluate.
func evaluateLinear(sorted []Policy, matchCat CategoryMatcher, env Env) Decision {
	var d Decision
	var dos, forbids []Policy
	for _, p := range sorted {
		if !p.Matches(env) {
			continue
		}
		d.Matched = append(d.Matched, p.ID)
		if p.Modality == ModalityForbid {
			forbids = append(forbids, p)
		} else {
			dos = append(dos, p)
		}
	}
	for _, doP := range dos {
		blockedBy := ""
		for _, fb := range forbids {
			if fb.Priority < doP.Priority {
				continue
			}
			if forbidCovers(matchCat, fb, doP.Action) {
				blockedBy = fb.ID
				break
			}
		}
		if blockedBy != "" {
			if d.Vetoed == nil {
				d.Vetoed = make(map[string]string)
			}
			d.Vetoed[doP.ID] = blockedBy
			continue
		}
		d.Actions = append(d.Actions, doP.Action)
	}
	return d
}

func forbidCovers(matchCat CategoryMatcher, fb Policy, a Action) bool {
	if fb.Action.Name != "" {
		return fb.Action.Name == a.Name
	}
	return matchCat(a.Category, fb.Action.Category)
}

// diffTaxonomy builds the taxonomy used by the differential tests so
// category forbids exercise the compile-time coverage resolution.
func diffTaxonomy(t *testing.T) *ontology.Taxonomy {
	t.Helper()
	tx := ontology.NewTaxonomy()
	for child, parent := range map[string]string{
		"mobility":     "physical",
		"surveillance": "sensing",
		"kinetic":      "physical",
	} {
		if err := tx.AddIsA(ontology.Concept(child), ontology.Concept(parent)); err != nil {
			t.Fatalf("AddIsA: %v", err)
		}
	}
	return tx
}

// TestDifferentialSnapshotVsLinear is the compiled decision plane's
// correctness anchor: on randomized policy sets, snapshot evaluation
// must produce a Decision deeply equal to the legacy linear scan —
// same actions in the same order, same matched IDs, same vetoes.
func TestDifferentialSnapshotVsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	tx := diffTaxonomy(t)
	eventTypes := []string{"tick", "smoke", "other", WildcardEvent}
	for trial := 0; trial < 1100; trial++ {
		policies := genPolicies(rng, 1+rng.Intn(40))
		var set *Set
		matchCat := func(got, want ontology.Concept) bool { return got == want }
		if trial%2 == 0 {
			matchCat = TaxonomyMatcher(tx)
			set = NewSet(WithCategoryMatcher(matchCat))
		} else {
			set = NewSet()
		}
		for _, p := range policies {
			if err := set.Add(p); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		snap := set.Snapshot()
		sorted := snap.Policies()
		for e := 0; e < 3; e++ {
			env := Env{Event: Event{
				Type:  eventTypes[rng.Intn(len(eventTypes))],
				Attrs: map[string]float64{"x": float64(rng.Intn(12))},
			}}
			got := snap.Evaluate(env)
			want := evaluateLinear(sorted, matchCat, env)
			if !reflect.DeepEqual(got.Actions, want.Actions) {
				t.Fatalf("trial %d: actions differ:\nsnapshot %v\nlinear   %v", trial, got.Actions, want.Actions)
			}
			if !reflect.DeepEqual(got.Matched, want.Matched) {
				t.Fatalf("trial %d: matched differ:\nsnapshot %v\nlinear   %v", trial, got.Matched, want.Matched)
			}
			if !reflect.DeepEqual(got.Vetoed, want.Vetoed) {
				t.Fatalf("trial %d: vetoes differ:\nsnapshot %v\nlinear   %v", trial, got.Vetoed, want.Vetoed)
			}
		}
	}
}

// TestDifferentialConflicts checks the bucketed conflict scan against
// a brute-force pairwise reference on randomized sets.
func TestDifferentialConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		policies := genPolicies(rng, 1+rng.Intn(30))
		set := NewSet()
		for _, p := range policies {
			if err := set.Add(p); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		snap := set.Snapshot()
		got := set.Conflicts()
		want := bruteForceConflicts(snap.Policies(), snap.matchCat)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: conflicts differ:\nbucketed %v\nbrute    %v", trial, got, want)
		}
	}
}

// bruteForceConflicts is the original O(n²) pairwise scan, kept as the
// conflict oracle.
func bruteForceConflicts(sorted []Policy, matchCat CategoryMatcher) []Conflict {
	var out []Conflict
	for i, a := range sorted {
		for _, b := range sorted[i+1:] {
			if !eventTypesOverlap(a.EventType, b.EventType) {
				continue
			}
			doP, fbP := a, b
			if doP.Modality == ModalityForbid {
				doP, fbP = b, a
			}
			switch {
			case doP.Modality == ModalityDo && fbP.Modality == ModalityForbid:
				if fbP.Priority >= doP.Priority && forbidCovers(matchCat, fbP, doP.Action) {
					out = append(out, Conflict{
						A:      doP.ID,
						B:      fbP.ID,
						Reason: fmt.Sprintf("forbid %s covers do action %q on event %s", fbP.ID, doP.Action.Name, doP.EventType),
					})
				}
			case a.Modality == ModalityDo && b.Modality == ModalityDo:
				if a.Priority == b.Priority && a.Action.Name == b.Action.Name && a.Action.Target == b.Action.Target {
					out = append(out, Conflict{
						A:      a.ID,
						B:      b.ID,
						Reason: fmt.Sprintf("duplicate action %q at priority %d", a.Action.Name, a.Priority),
					})
				}
			}
		}
	}
	return out
}

func TestConflictsDisjointEventTypes(t *testing.T) {
	set := NewSet()
	for i := 0; i < 1000; i++ {
		if err := set.Add(Policy{
			ID:        fmt.Sprintf("p%04d", i),
			EventType: fmt.Sprintf("ev-%04d", i),
			Priority:  i % 10,
			Modality:  ModalityDo,
			Action:    Action{Name: "act"},
		}); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if got := set.Conflicts(); len(got) != 0 {
		t.Fatalf("disjoint policies reported conflicts: %v", got)
	}
}

// TestSnapshotEpochAdvances checks the invalidation rules: reads reuse
// the published snapshot; every mutation forces exactly one recompile
// at the next read.
func TestSnapshotEpochAdvances(t *testing.T) {
	set := NewSet()
	if err := set.Add(Policy{ID: "a", EventType: "e", Modality: ModalityDo, Action: Action{Name: "x"}}); err != nil {
		t.Fatal(err)
	}
	s1 := set.Snapshot()
	if s2 := set.Snapshot(); s2 != s1 {
		t.Error("clean read recompiled the snapshot")
	}
	if err := set.Replace(Policy{ID: "a", EventType: "e", Modality: ModalityDo, Action: Action{Name: "y"}}); err != nil {
		t.Fatal(err)
	}
	s3 := set.Snapshot()
	if s3 == s1 || s3.Epoch() <= s1.Epoch() {
		t.Errorf("mutation did not advance the epoch: %d -> %d", s1.Epoch(), s3.Epoch())
	}
	stats := set.Stats()
	if stats.Compiles != 2 || stats.Epoch != s3.Epoch() {
		t.Errorf("Stats = %+v, want 2 compiles at epoch %d", stats, s3.Epoch())
	}
	// A snapshot taken before a mutation still evaluates the old view.
	d := s1.Evaluate(Env{Event: Event{Type: "e"}})
	if len(d.Actions) != 1 || d.Actions[0].Name != "x" {
		t.Errorf("old snapshot saw new policy: %v", d.Actions)
	}
	// Remove of a missing ID must not invalidate.
	if set.Remove("missing") {
		t.Error("Remove reported missing policy as removed")
	}
	if s4 := set.Snapshot(); s4 != s3 {
		t.Error("no-op Remove invalidated the snapshot")
	}
}

func TestAddBatchAtomicity(t *testing.T) {
	set := NewSet()
	good := Policy{ID: "g", EventType: "e", Modality: ModalityDo, Action: Action{Name: "x"}}
	bad := Policy{ID: "", EventType: "e"}
	if err := set.AddBatch([]Policy{good, bad}); err == nil {
		t.Fatal("AddBatch accepted invalid policy")
	}
	if set.Len() != 0 {
		t.Fatalf("partial batch inserted: Len = %d", set.Len())
	}
	batch := []Policy{
		good,
		{ID: "h", EventType: "e", Priority: 2, Modality: ModalityForbid, Action: Action{Name: "x"}},
	}
	if err := set.AddBatch(batch); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if err := set.AddBatch([]Policy{{ID: "g", EventType: "e", Modality: ModalityDo, Action: Action{Name: "x"}}}); err == nil {
		t.Fatal("AddBatch accepted duplicate of existing ID")
	}
	if err := set.AddBatch([]Policy{
		{ID: "i", EventType: "e", Modality: ModalityDo, Action: Action{Name: "x"}},
		{ID: "i", EventType: "e", Modality: ModalityDo, Action: Action{Name: "x"}},
	}); err == nil {
		t.Fatal("AddBatch accepted duplicate IDs within batch")
	}
	d := set.Evaluate(Env{Event: Event{Type: "e"}})
	if len(d.Matched) != 2 || d.Vetoed["g"] != "h" {
		t.Errorf("batch evaluation wrong: %+v", d)
	}
	if err := set.ReplaceBatch([]Policy{{ID: "h", EventType: "e", Priority: 2, Modality: ModalityForbid, Action: Action{Name: "other"}}}); err != nil {
		t.Fatalf("ReplaceBatch: %v", err)
	}
	d = set.Evaluate(Env{Event: Event{Type: "e"}})
	if len(d.Actions) != 1 || d.Vetoed != nil {
		t.Errorf("ReplaceBatch not applied: %+v", d)
	}
}

func TestVetoedNilWhenNoVeto(t *testing.T) {
	set := NewSet()
	if err := set.Add(Policy{ID: "a", EventType: "e", Modality: ModalityDo, Action: Action{Name: "x"}}); err != nil {
		t.Fatal(err)
	}
	if d := set.Evaluate(Env{Event: Event{Type: "e"}}); d.Vetoed != nil {
		t.Errorf("Vetoed allocated without a veto: %v", d.Vetoed)
	}
	if d := set.Evaluate(Env{Event: Event{Type: "none"}}); d.Vetoed != nil || d.Matched != nil || d.Actions != nil {
		t.Errorf("no-match decision not empty: %+v", d)
	}
}

func TestSnapshotForbidsAction(t *testing.T) {
	tx := ontology.NewTaxonomy()
	if err := tx.AddIsA("fire-weapon", "kinetic-action"); err != nil {
		t.Fatal(err)
	}
	set := NewSet(WithCategoryMatcher(TaxonomyMatcher(tx)))
	if err := set.Add(Policy{
		ID: "forbid-kinetic", EventType: WildcardEvent, Priority: 0, Modality: ModalityForbid,
		Action: Action{Category: "kinetic-action"},
	}); err != nil {
		t.Fatal(err)
	}
	snap := set.Snapshot()
	env := Env{Event: Event{Type: "command"}}
	if id, ok := snap.ForbidsAction(env, Action{Name: "engage", Category: "fire-weapon"}); !ok || id != "forbid-kinetic" {
		t.Errorf("ForbidsAction = %q,%v", id, ok)
	}
	if _, ok := snap.ForbidsAction(env, Action{Name: "observe", Category: "sensing"}); ok {
		t.Error("ForbidsAction matched uncovered action")
	}
}

func TestSnapshotVetoesStatically(t *testing.T) {
	set := NewSet()
	if err := set.Add(Policy{
		ID: "no-strike", EventType: WildcardEvent, Priority: 9, Modality: ModalityForbid,
		Action: Action{Name: "strike"},
	}); err != nil {
		t.Fatal(err)
	}
	snap := set.Snapshot()
	lo := Policy{ID: "c", EventType: "e", Priority: 1, Modality: ModalityDo, Action: Action{Name: "strike"}}
	if id, ok := snap.VetoesStatically(lo); !ok || id != "no-strike" {
		t.Errorf("VetoesStatically(low) = %q,%v", id, ok)
	}
	hi := lo
	hi.Priority = 10
	if _, ok := snap.VetoesStatically(hi); ok {
		t.Error("VetoesStatically vetoed a higher-priority do")
	}
	other := lo
	other.Action = Action{Name: "observe"}
	if _, ok := snap.VetoesStatically(other); ok {
		t.Error("VetoesStatically vetoed an uncovered action")
	}
}

// TestConcurrentEvaluateReplace hammers lock-free readers against
// writers; run under -race this is the tier-1 concurrency check for
// the decision plane.
func TestConcurrentEvaluateReplace(t *testing.T) {
	set := NewSet()
	for i := 0; i < 32; i++ {
		if err := set.Add(Policy{
			ID:        fmt.Sprintf("p%02d", i),
			EventType: "e",
			Priority:  i % 5,
			Modality:  ModalityDo,
			Action:    Action{Name: "act"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	env := Env{Event: Event{Type: "e"}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				d := set.Evaluate(env)
				if len(d.Matched) == 0 {
					t.Error("concurrent Evaluate saw empty set")
					return
				}
			}
		}()
		go func(w int) {
			defer wg.Done()
			p := Policy{ID: fmt.Sprintf("p%02d", w), EventType: "e", Modality: ModalityDo, Action: Action{Name: "act"}}
			for j := 0; j < 300; j++ {
				p.Priority = j % 7
				if err := set.Replace(p); err != nil {
					t.Errorf("Replace: %v", err)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				snap := set.Snapshot()
				if snap.Len() != 32 {
					t.Errorf("snapshot Len = %d", snap.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}
