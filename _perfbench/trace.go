package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one request share Req; Parent is the ID of the span that caused
// this one (0 for a root). Start and End are nanoseconds since the tracer
// was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's first dot-separated element: "serve.Submit"
// belongs to "serve".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and its methods cost a branch, so the untraced load runs
// the same code as the traced one.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	id, parent, req int64
	name            string
	start           time.Time
}

// begin starts a span. The returned value's id is the parent for the
// spans this call causes; it is 0 when tracing is off.
func (t *tracer) begin(name string, parent, req int64) open {
	if !t.on.Load() {
		return open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return open{id: id, parent: parent, req: req, name: name, start: time.Now()}
}

// end records the span, ending now.
func (t *tracer) end(o open) {
	if o.id == 0 {
		return
	}
	s := span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: o.start.Sub(t.t0).Nanoseconds(),
		End:   time.Since(t.t0).Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of that interval its children cover.
// Children of one span may overlap (a fleet round runs jobs in parallel),
// so the covered part is the length of the union of their intervals.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s, children[s.ID])
		out[s.layer()] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans writes the spans as JSON lines, one span a line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
