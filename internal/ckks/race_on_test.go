//go:build race

package ckks

// raceEnabled reports whether the race detector is compiled in. Under -race
// sync.Pool intentionally drops items to widen interleavings, so pool-backed
// zero-allocation locks cannot hold and are skipped.
const raceEnabled = true
