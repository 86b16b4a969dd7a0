package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"heap/internal/rlwe"
)

// TestStreamingCollectorMatchesFinish is the streaming bit-exactness lock:
// accumulators delivered to a MergeCollector in a random order from several
// concurrent goroutines — the cluster arrival pattern — must finish to the
// exact ciphertext the batch Finish path produces, in whichever
// representation each one arrives. Run under -race this also
// exercises the collector's locking.
func TestStreamingCollectorMatchesFinish(t *testing.T) {
	params, cl, _, bt := testSetup(t, 4)
	v := testVector(params.Slots)
	ct := cl.EncryptAtLevel(v, 1)
	count := 16
	prep := bt.PrepareSparse(ct, count)
	accs := make([]*rlwe.Ciphertext, count)
	bt.CompleteMissing(prep, accs)
	clone := func() []*rlwe.Ciphertext {
		out := make([]*rlwe.Ciphertext, count)
		for i, acc := range accs {
			out[i] = acc.CopyNew()
		}
		return out
	}

	ref, err := bt.Finish(prep, clone())
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 3; trial++ {
		mc, err := bt.NewMergeCollector(count)
		if err != nil {
			t.Fatal(err)
		}
		streamed := clone()
		if trial == 2 {
			// Mixed representations: half the accumulators arrive in NTT
			// form (a peer that transformed before sending) and are
			// converted at the door; the merged words must not move.
			for i := 1; i < count; i += 2 {
				params.QBasis.NTT(streamed[i].C0)
				params.QBasis.NTT(streamed[i].C1)
				streamed[i].IsNTT = true
			}
		}
		order := rand.New(rand.NewSource(int64(trial))).Perm(count)
		idxCh := make(chan int, count)
		for _, i := range order {
			idxCh <- i
		}
		close(idxCh)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idxCh {
					if err := mc.Add(i, streamed[i]); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		merged, err := mc.Merged()
		if err != nil {
			t.Fatal(err)
		}
		if merged.IsNTT {
			t.Fatalf("trial %d: Merged returned an NTT-form ciphertext; the repack's domain is the coefficient domain", trial)
		}
		out, err := bt.FinishMerged(prep, merged)
		if err != nil {
			t.Fatal(err)
		}
		if !params.QBasis.Equal(ref.C0, out.C0) || !params.QBasis.Equal(ref.C1, out.C1) {
			t.Fatalf("trial %d: streaming finish differs from batch finish", trial)
		}
	}
}

// TestMergeCollectorErrors covers the collector's failure surface: bad
// counts, out-of-range and duplicate deliveries, nil accumulators, and
// premature Merged calls all report errors instead of corrupting the tree.
func TestMergeCollectorErrors(t *testing.T) {
	_, _, _, bt := testSetup(t, 1)

	if _, err := bt.NewMergeCollector(3); err == nil {
		t.Error("expected error for non-power-of-two count")
	}
	if _, err := bt.NewMergeCollector(0); err == nil {
		t.Error("expected error for zero count")
	}

	mc, err := bt.NewMergeCollector(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Add(2, bt.NewAccumulator()); err == nil {
		t.Error("expected error for out-of-range index")
	}
	if err := mc.Add(0, nil); err == nil {
		t.Error("expected error for nil accumulator")
	}
	if err := mc.Add(0, bt.NewAccumulator()); err != nil {
		t.Fatal(err)
	}
	if err := mc.Add(0, bt.NewAccumulator()); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("expected duplicate-delivery error, got %v", err)
	}
	if _, err := mc.Merged(); err == nil || !strings.Contains(err.Error(), "1 of 2") {
		t.Errorf("expected incomplete-merge error, got %v", err)
	}
	if err := mc.Add(1, bt.NewAccumulator()); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Merged(); err != nil {
		t.Fatal(err)
	}
}

// TestFinishValidatesInputs: the error-returning Finish must reject
// mismatched accumulator slices instead of panicking mid-bootstrap.
func TestFinishValidatesInputs(t *testing.T) {
	params, cl, _, bt := testSetup(t, 2)
	v := testVector(params.Slots)
	ct := cl.EncryptAtLevel(v, 1)
	prep := bt.PrepareSparse(ct, 8)
	accs := make([]*rlwe.Ciphertext, 4) // wrong length
	if _, err := bt.Finish(prep, accs); err == nil {
		t.Error("expected error for accumulator count mismatch")
	}
	if _, err := bt.Finish(prep, make([]*rlwe.Ciphertext, 8)); err == nil {
		t.Error("expected error for nil accumulators")
	}
}
