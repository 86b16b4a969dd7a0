package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// bound says by how much one end-to-end metric may worsen. gate is
// BENCHMARK.json's figure, a share of the parent's median: the driver rejects
// a PR on it, and it is as wide as this host's run-to-run spread forces it to
// be; 0 on the metrics the file leaves out. rel and abs are the issue's
// bound, the one a claim is held to: a pairing is past it when it is worse by
// more than rel of the parent's median and by more than abs in the metric's
// own unit (a part that is 0 does not apply). TestBenchmarkJSONMatches keeps
// gate and higher equal to the file.
type bound struct {
	higher         bool // higher is better
	gate, rel, abs float64
}

var bounds = map[string]bound{
	"setup_s":            {gate: 0.25, rel: 0.25, abs: 0.25},
	"op_p25_ms":          {gate: 0.25, rel: 0.07},
	"op_p50_ms":          {rel: 0.07},
	"op_p90_ms":          {rel: 0.10},
	"ops_per_s":          {rel: 0.07, higher: true},
	"cpu_ms_per_op":      {gate: 0.25, rel: 0.07},
	"within_limit_share": {gate: 0.05, abs: 0.02, higher: true},
	"precision_bits":     {gate: 0.15, abs: 0.5, higher: true},
	"peak_rss_mb":        {gate: 0.15, rel: 0.10},
}

// maxFailedShareRise is the issue's bound on failed_share, absolute. The
// share is not an end-to-end metric of BENCHMARK.json (it reads 0 at the seed
// commit, which the driver forbids), so compare pools it from the envelopes.
const maxFailedShareRise = 0.005

// past reports whether a worsening of delta, in the metric's unit, against a
// median of base exceeds the issue's bound.
func (b bound) past(delta, base float64) bool {
	return (b.rel == 0 || delta > b.rel*base) && (b.abs == 0 || delta > b.abs)
}

// run is one valid untraced run of a result file.
type run struct {
	seed   int64
	values map[string]float64 // every end-to-end metric, gated or not
}

// runSet is what one result file holds for one workload.
type runSet struct {
	runs              []run
	invalid           int // runs left out: report.Valid was false
	attempted, failed int // pooled over the valid runs
}

func (s *runSet) failedShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// readRuns loads a JSON-lines result file, one runSet per workload. Traced
// runs carry reference passes of one third length and are left out; so are
// runs marked invalid, which did not measure what they claim.
func readRuns(path string) (map[string]*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets := make(map[string]*runSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Trace {
			continue
		}
		s := sets[rep.Workload]
		if s == nil {
			s = &runSet{}
			sets[rep.Workload] = s
		}
		if !rep.Valid {
			s.invalid++
			continue
		}
		s.attempted += rep.Reference.Attempted
		s.failed += rep.Reference.Failed
		r := run{seed: rep.Seed, values: make(map[string]float64)}
		for _, m := range []map[string]metricValue{rep.EndToEnd, rep.Ungated} {
			for name, v := range m {
				r.values[name] = v.Value
			}
		}
		s.runs = append(s.runs, r)
	}
	return sets, sc.Err()
}

// paired returns the values of one metric in the runs that A and B both made
// at the same seed, in A's order: va[i] and vb[i] had the same inputs, and
// when the runs were taken alternately, the same quarter of an hour.
func paired(a, b *runSet, metric string) (va, vb []float64) {
	bySeed := make(map[int64]run, len(b.runs))
	for _, r := range b.runs {
		bySeed[r.seed] = r
	}
	for _, ra := range a.runs {
		rb, ok := bySeed[ra.seed]
		if x, inA := ra.values[metric]; ok && inA {
			if y, inB := rb.values[metric]; inB {
				va, vb = append(va, x), append(vb, y)
			}
		}
	}
	return va, vb
}

// verdict judges B's runs of one metric against A's, pair by pair. B
// regressed when its median is past the driver's gate, or past the issue's
// bound with the measured spread unable to explain it. The spread is that of
// the pairs' differences: what is left of the host's noise once both sides
// have met the same of it, and nothing at all for a figure that repeats
// exactly at one seed. A pairing whose spread is itself past the bound is
// unresolved, not unchanged — unless B reads better than A in every pair.
func (b bound) verdict(va, vb []float64) (verdict string, noise float64) {
	ma := median(va)
	worse := median(vb) - ma
	diffs := make([]float64, len(va))
	for i := range va {
		diffs[i] = vb[i] - va[i]
	}
	allBetter, allWorse := slices.Max(diffs) < 0, slices.Min(diffs) > 0
	if b.higher {
		worse = -worse
		allBetter, allWorse = allWorse, allBetter
	}
	q1, q3 := quartiles(diffs)
	noise = q3 - q1
	noisy := b.past(noise, ma)
	switch {
	case b.gate > 0 && worse > b.gate*ma:
		return "REGRESSED past the gate", noise
	case b.past(worse, ma) && (allWorse || !noisy):
		return "REGRESSED", noise
	case noisy && !allBetter:
		return "unresolved", noise
	}
	return "ok", noise
}

// compareMain implements `heapmark compare A B`: for every workload row, B's
// failed share and every end-to-end metric of B against A's, over the runs
// the two sets made at the same seeds.
// Exit 0: every pairing resolved and within its bound; 1: a regression;
// 2: no regression, but pairings that the runs cannot resolve.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: heapmark compare A.jsonl B.jsonl")
		return 2
	}
	setsA, err := readRuns(args[0])
	var setsB map[string]*runSet
	if err == nil {
		setsB, err = readRuns(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "heapmark compare:", err)
		return 2
	}

	seen := make(map[string]bool)
	var names []string
	for _, sets := range []map[string]*runSet{setsA, setsB} {
		for w := range sets {
			if !seen[w] {
				seen[w] = true
				names = append(names, w)
			}
		}
	}
	sort.Strings(names)
	regressed, unresolved := 0, 0
	count := func(verdict string) string {
		switch verdict {
		case "ok":
		case "unresolved":
			unresolved++
		default:
			regressed++
		}
		return verdict
	}
	const row = "%-22s %-19s %12.4f %12.4f %8.4f %7s %7s %7s %-14s %s (%d pairs)\n"
	pct := func(share float64) string { return fmt.Sprintf("%.1f%%", 100*share) }
	fmt.Printf("%-22s %-19s %12s %12s %8s %7s %7s %7s %-14s %s\n",
		"workload", "metric", "A median", "B median", "B/A", "sprd A", "sprd B", "sprd Δ", "bound", "verdict")
	for _, w := range names {
		a, b := setsA[w], setsB[w]
		for i, s := range []*runSet{a, b} {
			side := "AB"[i : i+1]
			switch {
			case s == nil:
				fmt.Printf("%-22s has no runs in %s: %s\n", w, side, count("unresolved"))
			case s.invalid > 0:
				fmt.Printf("%-22s %d invalid run(s) in %s left out: %s\n", w, s.invalid, side, count("unresolved"))
			}
		}
		if a == nil || b == nil {
			continue
		}
		fa, fb := a.failedShare(), b.failedShare()
		verdict := "ok"
		if fb-fa > maxFailedShareRise {
			verdict = "REGRESSED"
		}
		fmt.Printf("%-22s %-19s %12.4f %12.4f %8s %7s %7s %-14s %s (attempted %d,%d)\n",
			w, "failed_share", fa, fb, "", "", "", fmt.Sprintf("+%g", maxFailedShareRise), count(verdict), a.attempted, b.attempted)
		for _, d := range slices.Concat(endToEndDefs, ungatedDefs) {
			bd := bounds[d.name]
			va, vb := paired(a, b, d.name)
			if len(va) == 0 {
				fmt.Printf("%-22s %-19s has no two valid runs at one seed: %s (runs %d,%d)\n", w, d.name, count("unresolved"), len(a.runs), len(b.runs))
				continue
			}
			limit := pct(bd.rel)
			switch {
			case bd.rel == 0:
				limit = fmt.Sprintf("%g %s", bd.abs, d.unit)
			case bd.abs != 0:
				limit += fmt.Sprintf(" & %g %s", bd.abs, d.unit)
			}
			verdict, noise := bd.verdict(va, vb)
			fmt.Printf(row, w, d.name, median(va), median(vb), median(vb)/median(va),
				pct(spread(va)), pct(spread(vb)), pct(noise/median(va)), limit, count(verdict), len(va))
		}
	}
	switch {
	case regressed > 0:
		fmt.Printf("%d pairing(s) regressed, %d unresolved\n", regressed, unresolved)
		return 1
	case unresolved > 0:
		fmt.Printf("no regression; %d pairing(s) unresolved: spread past the bound, or runs missing or invalid\n", unresolved)
		return 2
	}
	fmt.Println("every pairing within its bound")
	return 0
}
