//go:build race

package kv_test

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of the items put back, so allocation counts are not comparable.
const raceEnabled = true
