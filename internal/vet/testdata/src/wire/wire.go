// Fixture for the wirebounds and exhaustive checkers: a miniature wire
// package with a frame.Reader-style bounded count decoder, decode-side
// preallocations, and switches over the Op/Status enums.
package wire

type Op byte

const (
	OpQuery  Op = 1
	OpInsert Op = 2
	OpPing   Op = 3
)

type Status byte

const (
	StatusOK  Status = 0
	StatusErr Status = 1
)

// Reader mirrors frame.Reader: Count caps a count by what the remaining
// input could possibly hold (minSize bytes per element).
type Reader struct{ b []byte }

func (r *Reader) Uvarint() uint64 { return uint64(r.b[0]) }

func (r *Reader) Count(minSize int) int { return min(int(r.Uvarint()), len(r.b)/minSize) }

// tally has a Count method too, but it is not a Reader's: it bounds nothing.
type tally struct{ n int }

func (t tally) Count(int) int { return t.n }

func okBounded(r *Reader) []int64 {
	n := r.Count(8)
	return make([]int64, n)
}

func okCountInline(r Reader) map[string]int {
	return make(map[string]int, r.Count(2))
}

// okGuarded mirrors the frame-header path: the length is validated against
// an explicit limit before any payload exists to measure it against.
func okGuarded(b []byte, maxFrame int) []byte {
	n := int(b[0])
	if uint64(n) > uint64(maxFrame) {
		return nil
	}
	return make([]byte, n)
}

func okFromLen(b []byte) []byte {
	dst := make([]byte, len(b))
	copy(dst, b)
	return dst
}

func okConstant() []int {
	return make([]int, 16)
}

func badUnbounded(b []byte) []int64 {
	n := int(b[0])
	return make([]int64, n) // want "preallocation size"
}

func badMapPrealloc(b []byte) map[int]int {
	n := int(b[0])
	return make(map[int]int, n) // want "preallocation size"
}

func badDecodedCount(r *Reader) []int64 {
	return make([]int64, r.Uvarint()) // want "preallocation size"
}

func badForeignCount(r *Reader, t tally) []int64 {
	n := t.Count(8)
	return make([]int64, n) // want "preallocation size"
}

// badOrGuard is the shape of a real overflow: n*8 wraps negative for a
// large enough n and passes the joined guard, so it bounds nothing.
func badOrGuard(r *Reader, n int) []int64 {
	if n < 0 || n*8 > len(r.b) {
		return nil
	}
	return make([]int64, n) // want "preallocation size"
}

func describeOp(op Op) string {
	switch op { // want "misses OpPing and has no default arm"
	case OpQuery:
		return "query"
	case OpInsert:
		return "insert"
	}
	return "?"
}

func okDefaultArm(op Op) string {
	switch op {
	case OpQuery:
		return "query"
	default:
		return "other"
	}
}

func okFullCoverage(st Status) string {
	switch st {
	case StatusOK:
		return "ok"
	case StatusErr:
		return "err"
	}
	return ""
}

func badEmptySwitch(st Status) int {
	switch st { // want "misses StatusErr, StatusOK and has no default arm"
	}
	return 0
}
