// Fixture for the wirebounds checker in a package named wal: a log read
// back from disk is as untrusted as a peer's frame.
package wal

func badKeys(b []byte) []int {
	return make([]int, b[0]) // want "preallocation size"
}
