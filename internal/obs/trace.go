package obs

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Per-query tracing. A trace is born at the client (which allocates the
// ID and decides, by sampling, whether this query is traced), rides the
// wire as a request extension, accumulates per-stage spans on the server
// (queue → execute → crack), returns in the response, and is completed
// by the client (send/recv spans). Traces are emitted as one-line JSON
// events; `crackserved -trace-sample` prints the server's, and a client
// gets its own through client.Options.OnTrace. Sampling is 1-in-N at the client, so the untraced hot path costs
// one counter increment and a branch.

// Stage labels one span of a query's life. Wire-encoded as a single
// byte; values are protocol surface and must not be renumbered.
type Stage uint8

const (
	// StageClientSend covers request encode + write on the client.
	StageClientSend Stage = 1
	// StageQueue is time spent waiting for a serve worker slot.
	StageQueue Stage = 2
	// StageExecute is engine execution, queue exit to answer.
	StageExecute Stage = 3
	// StageCrack is the selection part of execution (engine Cost.Sel):
	// locating qualifying tuples, including any physical cracking and
	// piece alignment the query triggered.
	StageCrack Stage = 4
	// StageEncode covers response encode + write on the server. It only
	// appears in server-emitted events: the response cannot carry the
	// time it took to build itself.
	StageEncode Stage = 5
	// StageClientRecv covers response read + decode on the client.
	StageClientRecv Stage = 6
)

// String names the stage for JSON events and rendering.
func (s Stage) String() string {
	switch s {
	case StageClientSend:
		return "client_send"
	case StageQueue:
		return "queue"
	case StageExecute:
		return "execute"
	case StageCrack:
		return "crack"
	case StageEncode:
		return "encode"
	case StageClientRecv:
		return "client_recv"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// MaxStage is the highest defined Stage; the wire decoder rejects
// anything above it.
const MaxStage = StageClientRecv

// Span is one timed stage of a traced query. Start is the offset from
// the trace's origin — client call start for client spans, request
// receipt for server spans; the client re-anchors server spans after its
// send span when assembling the full trace.
type Span struct {
	Stage Stage
	Start time.Duration
	Dur   time.Duration
}

// Trace is an assembled per-query trace.
type Trace struct {
	ID    uint64
	Op    string
	Total time.Duration
	Err   string
	Spans []Span
}

// WriteJSON emits the trace as a one-line JSON event. Durations are
// microseconds (µs resolution is ample for stage attribution and keeps
// events eyeball-able).
func (t *Trace) WriteJSON(w io.Writer) error {
	if _, err := fmt.Fprintf(w, `{"trace":"%016x","op":%q,"total_us":%d`,
		t.ID, t.Op, t.Total.Microseconds()); err != nil {
		return err
	}
	if t.Err != "" {
		if _, err := fmt.Fprintf(w, `,"err":%q`, t.Err); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, `,"spans":[`); err != nil {
		return err
	}
	for i, sp := range t.Spans {
		sep := ""
		if i > 0 {
			sep = ","
		}
		if _, err := fmt.Fprintf(w, `%s{"stage":%q,"start_us":%d,"dur_us":%d}`,
			sep, sp.Stage.String(), sp.Start.Microseconds(), sp.Dur.Microseconds()); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// Sampler makes the 1-in-N trace decision and allocates trace IDs.
// Next() is one atomic add and a mask on the untraced path. A nil
// Sampler never samples.
type Sampler struct {
	mask uint64 // pow2-rounded rate minus one
	hi   uint64 // random high bits so IDs from different processes differ
	ctr  atomic.Uint64
	once sync.Once
}

// NewSampler samples one call in n (n <= 0 disables sampling). The rate
// is rounded up to the next power of two so the sampling decision needs
// no division: at ~1M q/s even the integer DIV of a modulo shows up on
// the untraced hot path.
func NewSampler(n int) *Sampler {
	if n <= 0 {
		return nil
	}
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	return &Sampler{mask: p - 1}
}

// Next reports whether this call is sampled and, if so, returns a
// process-unique nonzero trace ID.
func (s *Sampler) Next() (uint64, bool) {
	if s == nil {
		return 0, false
	}
	c := s.ctr.Add(1)
	if c&s.mask != 0 {
		return 0, false
	}
	s.once.Do(func() {
		// Seeded lazily so constructing a sampler stays trivially cheap;
		// IDs need uniqueness across processes, not unpredictability.
		s.hi = uint64(rand.Int63())<<16 | 0x1
	})
	id := s.hi ^ c
	if id == 0 {
		id = 1
	}
	return id, true
}
