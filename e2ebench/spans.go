package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the system. Spans of
// one trace share Trace; Parent is 0 for a trace's root. Start and End
// are nanoseconds since the recorder was created. Ops is how many
// identical calls the span covers (1 unless a rung times a block of
// sub-microsecond calls as one span).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// is the untraced run: opening and closing spans on it is a no-op that
// reads no clock.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	nextID uint64
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	rec               *recorder
	trace, id, parent uint64
	name              string
	start             int64
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) newID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// root opens a span that starts a new trace.
func (r *recorder) root(name string) spanRef {
	if r == nil {
		return spanRef{}
	}
	id := r.newID()
	return spanRef{rec: r, trace: id, id: id, name: name, start: r.now()}
}

// child opens a span under p.
func (p spanRef) child(name string) spanRef {
	if p.rec == nil {
		return spanRef{}
	}
	return spanRef{rec: p.rec, trace: p.trace, id: p.rec.newID(), parent: p.id, name: name, start: p.rec.now()}
}

// end closes a span covering one call.
func (s spanRef) end() { s.endN(1) }

// endN closes a span covering ops identical calls.
func (s spanRef) endN(ops int) {
	if s.rec == nil {
		return
	}
	s.rec.add(span{Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: s.rec.now(), Ops: ops})
}

// leaf records a finished child of parent whose bounds were taken by
// the caller (offsets from the recorder's origin).
func (p spanRef) leaf(name string, start, end int64) {
	if p.rec == nil {
		return
	}
	p.rec.add(span{Trace: p.trace, ID: p.rec.newID(), Parent: p.id, Name: name, Start: start, End: end, Ops: 1})
}

// since converts a wall instant to the recorder's offset.
func (r *recorder) since(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.origin))
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// perOp returns every span named name as per-call durations in
// microseconds.
func (r *recorder) perOp(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		ops := s.Ops
		if ops < 1 {
			ops = 1
		}
		out = append(out, float64(s.End-s.Start)/1e3/float64(ops))
	}
	return out
}

// count returns the number of spans named name.
func (r *recorder) count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// write stores the spans as JSON lines under dir and returns the path.
func (r *recorder) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
