package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of
// the boundary. Parent names the boundary above: the span of the same
// workload and op id on that layer is the call this one sits under in the
// stack, measured in its own replay of the same stream.
type span struct {
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Op       int    `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
}

// tracer collects spans in memory; a nil tracer records nothing.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) add(layer, parent string, op int, start time.Time, ns int64) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{t.workload, layer, op, s, s + ns, parent})
}

// write appends the spans to path as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
