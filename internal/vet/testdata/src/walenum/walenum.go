// Fixture for the exhaustive checker's wal.RecType coverage (the package
// is named wal so the enum reads wal.RecType, exactly as in the repo). A
// recovery switch that silently skips a new record type replays a
// corrupted store, so these switches must cover every constant or decide
// their unknown-value behavior in a default arm. It also pins that the
// wirebounds checker reaches a package named wal: a log read back from disk
// is as untrusted as a peer's frame.
package wal

type RecType byte

const (
	RecInsert     RecType = 1
	RecDelete     RecType = 2
	RecCrack      RecType = 3
	RecCheckpoint RecType = 4
)

func apply(t RecType) string {
	switch t { // want "misses RecCheckpoint, RecCrack and has no default arm"
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	}
	return ""
}

func okDefaultArm(t RecType) string {
	switch t {
	case RecInsert:
		return "insert"
	default:
		return "?"
	}
}

func okFullCoverage(t RecType) string {
	switch t {
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecCrack:
		return "crack"
	case RecCheckpoint:
		return "checkpoint"
	}
	return ""
}

func badKeys(b []byte) []int {
	return make([]int, b[0]) // want "preallocation size"
}
