//go:build !race

package netserve

const raceEnabled = false
