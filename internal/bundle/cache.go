package bundle

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/policy"
	"repro/internal/policylang"
)

// A fan-out delivers the same wire bytes, carrying the same records,
// to every subscriber of a root. Two process-wide caches let each
// distinct input be parsed and compiled once while every device still
// runs the whole check order of Agent.Apply on its own agent:
//
//   - decoded maps the SHA-256 of wire bytes to the bundle they
//     decode to. Identical bytes decode to identical bundles, and the
//     cached value never leaves this package: Apply only reads it, and
//     the public Decode always parses afresh.
//   - compiled maps a record's content hash to the policy its source
//     compiles to. It is consulted only after HashSource(rec.Source)
//     == rec.Hash has passed on the device's own bytes, so a hit is
//     the compilation of exactly that source; compiling is pure and
//     compiled policies are read-only, so devices may share one.
//
// Both are bounded; the oldest entry goes first. Two workers that miss
// on the same input at once both parse it, and the first put wins.
//
// One revision of one root reaches devices as at most historyDepth+1
// distinct wire bundles: a delta per base still in history and the
// full bundle. The decode bound holds two such revisions (the one
// converging and the one still in flight behind it) of two roots, the
// coalition of the rollout benchmark and E21; a larger coalition only
// re-parses. The compile bound holds every record of every cached
// bundle while bundles carry at most 64 records; the largest revision
// any workload publishes carries 12.
const (
	decodeCacheSize  = 2 * 2 * (historyDepth + 1)
	compileCacheSize = 64 * decodeCacheSize
)

var (
	decoded  = newBoundedCache[[sha256.Size]byte, Bundle](decodeCacheSize)
	compiled = newBoundedCache[string, policy.Policy](compileCacheSize)
)

// boundedCache is a mutex-guarded map holding at most size entries,
// evicting in insertion order. It grows on demand, so a process that
// never receives a bundle pays nothing for it.
type boundedCache[K comparable, V any] struct {
	mu   sync.Mutex
	size int
	m    map[K]V
	ring []K
	next int
}

func newBoundedCache[K comparable, V any](size int) *boundedCache[K, V] {
	return &boundedCache[K, V]{size: size, m: make(map[K]V)}
}

func (c *boundedCache[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

func (c *boundedCache[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return
	}
	if len(c.ring) < c.size {
		c.ring = append(c.ring, k)
	} else {
		delete(c.m, c.ring[c.next])
		c.ring[c.next] = k
		c.next = (c.next + 1) % len(c.ring)
	}
	c.m[k] = v
}

// decodeShared parses wire bytes through the decode cache. The result
// may be shared with other callers and must not be mutated or handed
// outside the package; undecodable bytes are not cached.
func decodeShared(data []byte) (Bundle, error) {
	key := sha256.Sum256(data)
	if b, ok := decoded.get(key); ok {
		return b, nil
	}
	b, err := Decode(data)
	if err != nil {
		return Bundle{}, err
	}
	decoded.put(key, b)
	return b, nil
}

// compileRecord returns the single policy a record's source compiles
// to, through the compile cache. The caller must already have checked
// HashSource(rec.Source) == rec.Hash, and still checks the policy's ID
// against rec.ID: the cache vouches for the source, not the record.
func compileRecord(rec Record) (policy.Policy, error) {
	if p, ok := compiled.get(rec.Hash); ok {
		return p, nil
	}
	pols, err := policylang.CompileSource(rec.Source, policy.OriginShared)
	if err != nil {
		return policy.Policy{}, fmt.Errorf("%w: record %s: %v", ErrMalformed, rec.ID, err)
	}
	if len(pols) != 1 {
		return policy.Policy{}, fmt.Errorf("%w: record %s does not compile to exactly that policy", ErrMalformed, rec.ID)
	}
	compiled.put(rec.Hash, pols[0])
	return pols[0], nil
}
