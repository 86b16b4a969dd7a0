package core

import (
	"fmt"
	"sync"

	"heap/internal/obs"
	"heap/internal/rlwe"
)

// MergeCollector is the streaming half of the paper's §V primary node: the
// blind-rotated accumulators stream back from the secondaries in arbitrary
// order, and sibling nodes of the repacking merge tree are merged the moment
// both are available — so by the time the last accumulator lands, almost the
// entire count−1-node tree is already done and repacking overlaps the
// blind-rotate/network tail instead of running after it.
//
// Concurrency model: Add climbs the tree from the accumulator's leaf,
// executing every merge for which it delivered the second sibling.
// Merges on disjoint subtrees therefore run concurrently in whichever
// goroutines delivered their accumulators; the collector spawns no
// goroutines and never blocks on missing siblings, only on the short
// bookkeeping mutex. The tree shape is fixed by the count alone, so the
// merged result is bit-identical to the serial reference regardless of
// arrival order or caller concurrency.
type MergeCollector struct {
	bt    *Bootstrapper
	count int

	mu sync.Mutex
	// nodes[l][i] holds a completed but not-yet-merged node i of tree level
	// l (level 0 = leaves); it is cleared when claimed by its sibling.
	nodes     [][]*rlwe.Ciphertext
	added     []bool
	delivered int
	root      *rlwe.Ciphertext
	err       error
}

// NewMergeCollector prepares a collector for a bootstrap of `count`
// accumulators (the prepared bootstrap's Count). The merges need the
// packing keys: a key-cold bootstrapper refuses with ErrKeyCold.
func (bt *Bootstrapper) NewMergeCollector(count int) (*MergeCollector, error) {
	if bt.repacker == nil {
		return nil, keyCold("packing keys")
	}
	if count < 1 || count > bt.Params.N() || count&(count-1) != 0 {
		return nil, fmt.Errorf("core: merge collector needs a power-of-two count in [1, %d], got %d",
			bt.Params.N(), count)
	}
	mc := &MergeCollector{bt: bt, count: count, added: make([]bool, count)}
	levels := 0
	for c := count; c > 1; c >>= 1 {
		levels++
	}
	mc.nodes = make([][]*rlwe.Ciphertext, levels)
	for l := range mc.nodes {
		mc.nodes[l] = make([]*rlwe.Ciphertext, count>>l)
	}
	return mc, nil
}

// Add delivers accumulator idx (coefficient or NTT representation; consumed
// as scratch) and performs every merge it completes. Safe for concurrent use
// from any number of goroutines; each index must be delivered exactly once.
func (mc *MergeCollector) Add(idx int, acc *rlwe.Ciphertext) error {
	if idx < 0 || idx >= mc.count {
		return fmt.Errorf("core: accumulator index %d out of range [0, %d)", idx, mc.count)
	}
	if acc == nil {
		return fmt.Errorf("core: nil accumulator %d", idx)
	}
	mc.mu.Lock()
	if mc.added[idx] {
		mc.mu.Unlock()
		return fmt.Errorf("core: accumulator %d delivered twice", idx)
	}
	mc.added[idx] = true
	mc.delivered++
	mc.mu.Unlock()

	// The tree runs in the coefficient domain, the form blind rotation emits;
	// an NTT-form accumulator is converted at the door.
	if acc.IsNTT {
		bL := mc.bt.Params.QBasis.AtLevel(acc.Level())
		bL.INTT(acc.C0)
		bL.INTT(acc.C1)
		acc.IsNTT = false
		mc.bt.rec.Add(obs.CounterNTT, uint64(2*acc.Level()))
	}

	node, l, i := acc, 0, idx
	for {
		m := mc.count >> l // nodes at this tree level
		if m == 1 {
			mc.mu.Lock()
			mc.root = node
			mc.mu.Unlock()
			return nil
		}
		half := m / 2
		parent := i
		partner := i + half
		if i >= half {
			parent = i - half
			partner = i - half
		}
		mc.mu.Lock()
		sib := mc.nodes[l][partner]
		if sib == nil {
			// Sibling not here yet: park this node; whoever delivers the
			// sibling performs the merge.
			mc.nodes[l][i] = node
			mc.mu.Unlock()
			return nil
		}
		mc.nodes[l][partner] = nil
		mc.mu.Unlock()
		e, o := node, sib
		if i >= half {
			e, o = sib, node
		}
		merged, err := mc.bt.repacker.MergePair(e, o, 2<<l)
		if err != nil {
			mc.mu.Lock()
			if mc.err == nil {
				mc.err = err
			}
			mc.mu.Unlock()
			return err
		}
		node, l, i = merged, l+1, parent
	}
}

// Merged returns the fully merged ciphertext (the Repacker.Merge result, in
// coefficient representation). It does not block: the caller must have
// completed — and synchronized with — all count Add calls first.
func (mc *MergeCollector) Merged() (*rlwe.Ciphertext, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.err != nil {
		return nil, mc.err
	}
	if mc.root == nil {
		return nil, fmt.Errorf("core: merge incomplete: %d of %d accumulators delivered", mc.delivered, mc.count)
	}
	return mc.root, nil
}
