//go:build race

package netserve

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is given, so allocation budgets do not hold.
const raceEnabled = true
