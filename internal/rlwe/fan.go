package rlwe

import (
	"runtime"
	"sync"
	"sync/atomic"

	"heap/internal/obs"
	"heap/internal/rns"
)

// minFanDegree is the smallest ring degree whose limb tasks are handed to
// other goroutines. Below it a limb task is a few microseconds of arithmetic
// and a hand-off costs as much as it saves: one rotation at the top level,
// width 1 against width 2 on the two-vCPU reference host, breaks even between
// N = 2⁹ and N = 2¹⁰ and loses at N = 2⁸ (the table is in DESIGN.md
// "Limb-level fan-out"). Smaller rings run inline whatever the width, and
// their digit phase is not cut into limb-sized tasks at all (KeySwitcher.span).
const minFanDegree = 1 << 10

// fan runs task(w, 0), …, task(w, n−1), each index exactly once, on up to
// width goroutines and returns when all have finished; w < width names the
// goroutine that runs the task, so a task may use per-goroutine scratch. The
// caller starts width goroutines for this call only, each claims the next
// unclaimed index until none is left, and the caller only waits — so nothing
// outlives the call and there is no pool to size or close. With width ≤ 1 (or
// a single task) it is a plain loop on the caller's goroutine. Tasks must be
// independent: nothing orders them but the return.
//
// The caller deals and blocks instead of claiming tasks itself because of how
// the runtime hands a new goroutine to an idle processor: one started by a
// goroutine that keeps running waits in its processor's runnext slot, which
// an idle processor may steal only after a 3 µs sleep that Linux's default
// 50 µs timer slack stretches past 65 µs — longer than two limb transforms
// at the paper's ring. Each go statement after the first moves the goroutine
// before it to the ordinary run queue, which an idle processor steals from
// without that sleep, and the blocked caller's processor runs the last one at
// once (DESIGN.md "Limb-level fan-out" has the measured start latencies).
//
// A task that panics stops the claiming; once every goroutine has finished,
// the first panic value is raised again on the caller.
func fan(width, n int, task func(w, i int)) { startFan(width, n, task).wait() }

// startFan is fan without the wait: it deals the tasks and returns at once,
// so the caller can do other work — key generation draws the next row's
// randomness — before it blocks in wait. The caller keeps its processor
// meanwhile, so the last lane it started waits in that processor's runnext
// slot until another processor steals it or the caller blocks; the lanes
// claim tasks, so the ones already running take the work. With width ≤ 1 (or
// a single task) the tasks run on the caller before it returns, and the
// handle is nil.
func startFan(width, n int, task func(w, i int)) *fanout {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return nil
	}
	f := &fanout{n: n, task: task}
	f.wg.Add(width)
	for w := 0; w < width; w++ {
		go f.lane(w)
	}
	return f
}

// wait blocks until every lane of the fan has finished and raises the first
// task panic again; on a nil fan (one that ran inline) it returns at once.
func (f *fanout) wait() {
	if f == nil {
		return
	}
	f.wg.Wait()
	if f.failure != nil {
		panic(f.failure)
	}
}

// fanout is one fan call's shared state, in one allocation.
type fanout struct {
	next    atomic.Int64 // the next unclaimed task index
	wg      sync.WaitGroup
	once    sync.Once
	failure any // the first value a task panicked with
	n       int
	task    func(w, i int)
}

// lane is goroutine w of a fan: it claims and runs tasks until none is left,
// or until a task on any lane has panicked.
func (f *fanout) lane(w int) {
	defer f.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			f.next.Store(int64(f.n))
			f.once.Do(func() { f.failure = r })
		}
	}()
	for i := int(f.next.Add(1)) - 1; i < f.n; i = int(f.next.Add(1)) - 1 {
		f.task(w, i)
	}
}

// SetWorkers sets how many goroutines one operation of this key switcher may
// spread its limb tasks over: the width of its pooled arenas — the ones behind
// Relinearize, Automorphism, Decompose and ApplyGaloisHoisted, whose caller
// is a single stream with the other cores idle — of Fan, and of the repack
// trace. Arenas a caller makes with NewScratch stay at width 1 whatever this
// says: blind-rotation workers (heapd's batch workers among them) and
// merge-tree nodes are each already one of several goroutines that fill the
// cores between them.
// Set it beside SetRecorder, before the key switcher is shared; the default
// is 1.
func (ks *KeySwitcher) SetWorkers(n int) { ks.workers = n }

// width is the number of goroutines a single-stream operation runs on now:
// the configured workers, capped by the processors the runtime schedules on,
// and 1 on a ring too small to pay for a hand-off.
func (ks *KeySwitcher) width() int {
	if ks.workers <= 1 || !ks.fans {
		return 1
	}
	return min(ks.workers, runtime.GOMAXPROCS(0))
}

// Fan runs the n independent tasks of a caller's own per-limb loop —
// the tensor product and the rescale around a relinearization, the transforms
// that close a bootstrap — at the key switcher's width; see fan.
func (ks *KeySwitcher) Fan(n int, task func(i int)) {
	if w := ks.width(); w > 1 && n > 1 {
		fan(w, n, func(_, i int) { task(i) })
		return
	}
	for i := 0; i < n; i++ {
		task(i)
	}
}

// run executes one phase of the arena's operation: phase(ks, sc, t) for every
// limb task t < n. An arena of width 1 — every blind rotation, merge node and
// heapd job — loops over method calls, with no closure, atomic or goroutine
// between it and the arithmetic; a wider one hands the same calls to fan.
func (ks *KeySwitcher) run(sc *Scratch, n int, phase func(*KeySwitcher, *Scratch, int)) {
	if sc.width > 1 {
		fan(sc.width, n, func(_, t int) { phase(ks, sc, t) })
		return
	}
	for t := 0; t < n; t++ {
		phase(ks, sc, t)
	}
}

// runLanes is run for a phase whose tasks use per-goroutine scratch:
// phase(ks, sc, w, t), w the arena lane of the goroutine running task t.
func (ks *KeySwitcher) runLanes(sc *Scratch, n int, phase func(*KeySwitcher, *Scratch, int, int)) {
	if sc.width > 1 {
		fan(sc.width, n, func(w, t int) { phase(ks, sc, w, t) })
		return
	}
	for t := 0; t < n; t++ {
		phase(ks, sc, 0, t)
	}
}

// DivRoundByLastModulus returns ct divided by its last limb modulus and
// rounded, one level lower and in ct's representation — the CKKS rescale, as
// rns.DivRoundByLastModulus performs it on one polynomial, over both
// components with the limb steps at the key switcher's width: the two
// last-limb inverse transforms side by side, then every remaining limb of
// both components. It allocates the result (NewCiphertext); the two last
// limbs' coefficient forms go to a pooled pair of N-word buffers (not a
// pooled arena's: a caller whose arena pool is cold — a bootstrap's one
// rescale — would build a whole arena for them). The scale is copied;
// dividing it is the caller's book-keeping. In NTT form its limb transforms
// are counted: two inverse, then one forward per remaining limb and side.
func (ks *KeySwitcher) DivRoundByLastModulus(ct *Ciphertext) *Ciphertext {
	last := ct.Level() - 1
	if last < 1 {
		panic("rlwe: cannot rescale a single-limb ciphertext")
	}
	b := ks.params.QBasis
	in := [2]rns.Poly{ct.C0, ct.C1}
	res := NewCiphertext(ks.params, last)
	out := [2]rns.Poly{res.C0, res.C1}
	buf := ks.lastLimbs.Get().(*rns.Poly)
	cL := buf.Limbs
	ks.Fan(2, func(s int) { b.LastLimbCoeffs(in[s], ct.IsNTT, cL[s]) })
	ks.Fan(2*last, func(t int) {
		s, i := t/last, t%last
		b.DivRoundLimb(i, last, in[s].Limbs[i], cL[s], ct.IsNTT, out[s].Limbs[i])
	})
	ks.lastLimbs.Put(buf)
	if ct.IsNTT {
		ks.rec.Add(obs.CounterNTT, uint64(2*(last+1)))
	}
	res.IsNTT, res.Scale = ct.IsNTT, ct.Scale
	return res
}
