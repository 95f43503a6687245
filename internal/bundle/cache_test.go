package bundle

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/policylang"
)

// The public Decode hands out a fresh bundle: mutating it cannot reach
// the decode cache, so the original bytes still activate on a fresh
// agent, whether the cache was filled before or after the mutation.
func TestDecodeCacheUnreachableFromDecode(t *testing.T) {
	full, _, err := NewPublisher(testKey()).Publish(mkPolicies(t, 3, "decode-cache"))
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	data, err := Encode(full)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	mutate := func() {
		b, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		for id := range b.Manifest.Coverage {
			b.Manifest.Coverage[id] = "tampered"
		}
		b.Manifest.Removed = append(b.Manifest.Removed, "p00")
		b.Records[0].Source = "tampered"
		b.Records[1].Hash = "tampered"
	}
	mutate()
	if applied, err := NewAgent(policy.NewSet(), testKey()).ApplyWire(data); err != nil || !applied {
		t.Fatalf("ApplyWire after mutating a decoded copy: applied=%v err=%v", applied, err)
	}
	mutate()
	if applied, err := NewAgent(policy.NewSet(), testKey()).ApplyWire(data); err != nil || !applied {
		t.Fatalf("ApplyWire from the cache after mutating a decoded copy: applied=%v err=%v", applied, err)
	}
}

// A record whose hash is already in the compile cache but whose source
// differs fails the device's own hash check: a cache hit would have
// compiled the cached source and passed every later check.
func TestCompileCacheHashCheckedFirst(t *testing.T) {
	pub := NewPublisher(testKey())
	full, _, err := pub.Publish(mkPolicies(t, 2, "hash-first"))
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if applied, err := NewAgent(policy.NewSet(), testKey()).Apply(full); err != nil || !applied {
		t.Fatalf("Apply: applied=%v err=%v", applied, err)
	}
	if _, cached := compiled.get(full.Records[0].Hash); !cached {
		t.Fatal("activated record not in the compile cache")
	}
	// Re-sign a copy whose first record keeps its (cached) hash but
	// carries other source, so only the hash check can catch it.
	forged := full
	forged.Records = append([]Record(nil), full.Records...)
	forged.Records[0].Source = mkSource(t, "other")
	forged.SignWith(testKey())
	_, err = NewAgent(policy.NewSet(), testKey()).Apply(forged)
	if !errors.Is(err, ErrHash) {
		t.Fatalf("cached hash over other source: err=%v, want ErrHash", err)
	}
}

// Two records with one hash — the same source — under different IDs:
// the cache hit still goes through the per-device ID check.
func TestCompileCacheKeepsIDCheck(t *testing.T) {
	src := mkSource(t, "same-hash")
	h := HashSource(src)
	agent := NewAgent(policy.NewSet(), testKey())
	mk := func(rev uint64, id string) Bundle {
		b := Bundle{
			Manifest: Manifest{Revision: rev, Coverage: map[string]string{id: h}},
			Records:  []Record{{ID: id, Source: src, Hash: h}},
		}
		b.Manifest.Root = ComputeRoot(b.Manifest)
		b.SignWith(testKey())
		return b
	}
	if applied, err := agent.Apply(mk(1, "p00")); err != nil || !applied {
		t.Fatalf("first record: applied=%v err=%v", applied, err)
	}
	if _, cached := compiled.get(h); !cached {
		t.Fatal("first record not in the compile cache")
	}
	applied, err := agent.Apply(mk(2, "p99"))
	if applied || !errors.Is(err, ErrMalformed) {
		t.Fatalf("same hash under another ID: applied=%v err=%v, want ErrMalformed", applied, err)
	}
	if agent.Revision() != 1 {
		t.Fatalf("agent moved to revision %d after refusal", agent.Revision())
	}
}

// Many revisions, each with new records and new wire bytes, leave both
// caches within their bounds.
func TestCachesStayBounded(t *testing.T) {
	pub := NewPublisher(testKey())
	agent := NewAgent(policy.NewSet(), testKey())
	const perRev = 100
	for rev := 0; rev <= decodeCacheSize || rev*perRev <= compileCacheSize; rev++ {
		full, _, err := pub.Publish(mkPolicies(t, perRev, fmt.Sprint("bounded", rev)))
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		data, err := Encode(full)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if applied, err := agent.ApplyWire(data); err != nil || !applied {
			t.Fatalf("revision %d: applied=%v err=%v", rev+1, applied, err)
		}
		if n := entries(decoded); n > decodeCacheSize {
			t.Fatalf("decode cache holds %d entries, bound %d", n, decodeCacheSize)
		}
		if n := entries(compiled); n > compileCacheSize {
			t.Fatalf("compile cache holds %d entries, bound %d", n, compileCacheSize)
		}
	}
	if n := entries(compiled); n != compileCacheSize {
		t.Fatalf("compile cache holds %d entries after overflowing, want %d", n, compileCacheSize)
	}
	if n := entries(decoded); n != decodeCacheSize {
		t.Fatalf("decode cache holds %d entries after overflowing, want %d", n, decodeCacheSize)
	}
}

// mkSource renders the canonical source of policy p00 with the given
// action target.
func mkSource(t *testing.T, tag string) string {
	t.Helper()
	src, err := policylang.Format(mkPolicies(t, 1, tag)[0])
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return src
}

// entries reads how many entries a cache holds.
func entries[K comparable, V any](c *boundedCache[K, V]) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Agents on many goroutines apply the same wire revisions at once, as
// a sharded fan-out does: they share decode and compile cache entries,
// and every one ends on the same verified revision.
func TestCachesConcurrentApply(t *testing.T) {
	pub := NewOrgPublisher(orgKey("us"), "us")
	var wire [][]byte
	for rev := 0; rev < 4; rev++ {
		full, delta, err := pub.Publish(mkOrgPolicies(t, "us", 6, fmt.Sprint("concurrent", rev)))
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		b := delta
		if rev == 0 {
			b = full
		}
		data, err := Encode(b)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		wire = append(wire, data)
	}
	const agents = 8
	sets := make([]*policy.Set, agents)
	errs := make(chan error, agents)
	var wg sync.WaitGroup
	for i := range sets {
		sets[i] = policy.NewSet()
		router := NewRouter(NewOrgAgent(sets[i], coalitionRing(), "us"))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, data := range wire {
				if d := router.ApplyWire(data); d.Err != nil || !d.Applied {
					errs <- fmt.Errorf("revision %d: %+v", d.Revision, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, set := range sets {
		if set.OrgRevision("us") != 4 || set.Len() != 6 {
			t.Fatalf("agent %d on revision %d with %d policies, want 4 and 6", i, set.OrgRevision("us"), set.Len())
		}
		p, _ := set.Get("us.p00")
		if p.Action.Target != "concurrent3" {
			t.Fatalf("agent %d holds target %q, want concurrent3", i, p.Action.Target)
		}
	}
}
