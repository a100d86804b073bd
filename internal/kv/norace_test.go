//go:build !race

package kv_test

const raceEnabled = false
