// Package serve is the bootstrap-as-a-service layer: a stdlib-only network
// front end that accepts blind-rotate jobs from many concurrent tenants over
// the cluster's frame protocol, resolves each tenant's evaluation key
// from a concurrent-safe registry, and coalesces same-key requests from
// different connections into key-major batches so one BRK pass through cache
// serves N users (the amortization HEAP's parallelized bootstrapping is
// built around, lifted from "one ciphertext's rotations" to "one tenant's
// concurrent requests").
//
// The split of labor mirrors the paper's trust model: blind rotation touches
// only public material (the LWE ciphertexts, the params-only LUT, and the
// tenant's public blind-rotate key), so the server computes the expensive
// middle of Algorithm 2 bit-identically to the tenant running it locally,
// while Prepare and Finish — which involve the tenant's own ciphertext
// stream — stay client-side.
package serve

import (
	"errors"
	"fmt"
	"sync"

	"heap/internal/cluster"
	"heap/internal/obs"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// ErrNoKey reports a job for a tenant whose blind-rotate key is not
// resident; the client should upload the key and retry.
var ErrNoKey = errors.New("no blind-rotate key registered for tenant")

// ErrRegistryFull reports that the registry byte budget is exhausted by
// pinned (in-use) keys, so nothing can be evicted to make room.
var ErrRegistryFull = errors.New("key registry full: byte budget exhausted by pinned keys")

// Registry is the multi-tenant evaluation-key store (the role lattigo's
// EvaluationKeySetInterface plays for its evaluators): ref-counted so a key
// is never evicted while a batch streams it, and LRU-bounded by total key
// bytes. Keys arrive by upload (or Put); the registry also holds one
// key-stream receiver per tenant, so a tenant killed mid-upload resumes from
// its last acked chunk on a fresh connection.
type Registry struct {
	params   *rlwe.Parameters
	dim      int  // LWE dimension every key must cover
	binary   bool // key kind every key must be (core.Bootstrapper.BinaryKey)
	maxBytes int64
	rec      obs.Recorder

	mu      sync.Mutex
	entries map[string]*regEntry
	uploads map[string]*cluster.KeyReceiver
	bytes   int64
	clock   uint64 // LRU tick, bumped on every acquire
}

type regEntry struct {
	key   *tfhe.BlindRotateKey
	bytes int64
	refs  int
	used  uint64
}

// NewRegistry builds a registry for keys of the given LWE dimension and kind.
// maxBytes ≤ 0 means unbounded. rec may be nil.
func NewRegistry(params *rlwe.Parameters, dim int, binary bool, maxBytes int64, rec obs.Recorder) *Registry {
	return &Registry{
		params:   params,
		dim:      dim,
		binary:   binary,
		maxBytes: maxBytes,
		rec:      obs.OrNop(rec),
		entries:  make(map[string]*regEntry),
		uploads:  make(map[string]*cluster.KeyReceiver),
	}
}

// Acquire resolves and pins tenant's key. The returned release func is
// idempotent and must be called when the batch is done streaming the key;
// until then the key cannot be evicted.
func (r *Registry) Acquire(tenant string) (*tfhe.BlindRotateKey, func(), error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[tenant]
	if !ok {
		return nil, nil, fmt.Errorf("serve: %w: %q", ErrNoKey, tenant)
	}
	return e.key, r.pinLocked(e), nil
}

// pinLocked bumps the ref count and LRU tick of e (r.mu held) and returns
// the matching idempotent release.
func (r *Registry) pinLocked(e *regEntry) func() {
	e.refs++
	r.clock++
	e.used = r.clock
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			e.refs--
			r.mu.Unlock()
		})
	}
}

// Put installs (or replaces) tenant's key, evicting unpinned LRU keys as
// needed to fit the byte budget.
func (r *Registry) Put(tenant string, key *tfhe.BlindRotateKey) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if key == nil || key.NumKeys() != r.dim {
		got := 0
		if key != nil {
			got = key.NumKeys()
		}
		return fmt.Errorf("serve: key for %q covers %d indices, want %d", tenant, got, r.dim)
	}
	if key.Binary != r.binary {
		return fmt.Errorf("serve: key for %q has binary=%v, want binary=%v", tenant, key.Binary, r.binary)
	}
	if err := key.CheckShape(); err != nil {
		return fmt.Errorf("serve: key for %q: %w", tenant, err)
	}
	size := int64(key.SizeBytes())
	if old, ok := r.entries[tenant]; ok {
		r.bytes -= old.bytes
		delete(r.entries, tenant)
		r.rec.Gauge(obs.GaugeResidentTenants, -1)
	}
	if r.maxBytes > 0 && size > r.maxBytes {
		return fmt.Errorf("serve: key for %q is %d bytes, registry budget is %d", tenant, size, r.maxBytes)
	}
	for r.maxBytes > 0 && r.bytes+size > r.maxBytes {
		if !r.evictLRULocked() {
			return fmt.Errorf("serve: cannot admit %d-byte key for %q: %w", size, tenant, ErrRegistryFull)
		}
	}
	r.clock++
	r.entries[tenant] = &regEntry{key: key, bytes: size, used: r.clock}
	r.bytes += size
	r.rec.Gauge(obs.GaugeResidentTenants, +1)
	return nil
}

// evictLRULocked removes the least-recently-used unpinned entry; false when
// every resident key is pinned.
func (r *Registry) evictLRULocked() bool {
	victim := ""
	var oldest uint64
	for t, e := range r.entries {
		if e.refs > 0 {
			continue
		}
		if victim == "" || e.used < oldest {
			victim, oldest = t, e.used
		}
	}
	if victim == "" {
		return false
	}
	r.bytes -= r.entries[victim].bytes
	delete(r.entries, victim)
	r.rec.Add(obs.CounterKeysEvicted, 1)
	r.rec.Gauge(obs.GaugeResidentTenants, -1)
	return true
}

// TenantKey describes one resident registry entry for the metrics snapshot.
type TenantKey struct {
	Tenant string `json:"tenant"`
	Bytes  int64  `json:"bytes"`
	Refs   int    `json:"refs"`
}

// Resident snapshots the resident keys (unspecified order).
func (r *Registry) Resident() []TenantKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TenantKey, 0, len(r.entries))
	for t, e := range r.entries {
		out = append(out, TenantKey{Tenant: t, Bytes: e.bytes, Refs: e.refs})
	}
	return out
}

// Bytes returns the resident key bytes.
func (r *Registry) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// upload returns tenant's key receiver, made at its first key frame.
// detach removes it from the registry, as a done frame does before the
// receiver parses the blob: the tenant's next upload, on any connection,
// starts from a fresh offer.
func (r *Registry) upload(tenant string, detach bool) *cluster.KeyReceiver {
	r.mu.Lock()
	defer r.mu.Unlock()
	kr := r.uploads[tenant]
	if kr == nil {
		kr = cluster.NewKeyReceiver(r.params, r.dim, r.binary)
		r.uploads[tenant] = kr
	}
	if detach {
		delete(r.uploads, tenant)
	}
	return kr
}

// receiveKey answers one frame of tenant's key upload; a done frame
// installs the key before it is echoed.
func (r *Registry) receiveKey(tenant string, f *cluster.Frame) (*cluster.Frame, error) {
	reply, key, err := r.upload(tenant, f.Kind == cluster.FrameKeyDone).Receive(f, r.rec)
	if err == nil && key != nil {
		err = r.Put(tenant, key)
	}
	return reply, err
}

// holds reports whether tenant's key is resident.
func (r *Registry) holds(tenant string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[tenant] != nil
}
