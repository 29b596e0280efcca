package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// This file is the benchmark's span recorder. Spans are recorded from the
// benchmark's own files, around its calls into each layer's public entry
// point; nothing inside the program is instrumented. They are held in memory
// and written to out/trace-<workload>.jsonl when the run ends.

// span is one timed call. Spans of one request share Req. A span whose
// Parent is 0 is a root: either the outermost layer of the request's ladder
// or a detail span (decode, ground, fold, ...) that re-measures a slice of a
// layer's self time in isolation and is subtracted from nothing.
type span struct {
	Req     int                `json:"req"`
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s *span) durNS() int64 { return s.EndNS - s.StartNS }

// tracer collects spans; safe for concurrent use (cache and transport
// decorators record from the engine's worker goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(req, parent int, name string, start, end int64, counts map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, StartNS: start, EndNS: end, Counts: counts})
	return id
}

// reserve allocates an id for a span whose children are recorded before it
// ends (true children need their parent's id while the parent is running).
func (t *tracer) reserve(req, parent int, name string, start int64) int {
	return t.add(req, parent, name, start, start, nil)
}

// finish closes a reserved span.
func (t *tracer) finish(id int, end int64, counts map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = end
	t.spans[id-1].Counts = counts
}

// durNS returns a recorded span's duration.
func (t *tracer) durNS(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].durNS()
}

// timed runs fn as a finished span and returns its id.
func (t *tracer) timed(req, parent int, name string, fn func() map[string]float64) int {
	start := t.now()
	counts := fn()
	return t.add(req, parent, name, start, t.now(), counts)
}

// selfTimes returns every span's self time in nanoseconds: its duration
// minus what its children account for. A child that started inside the
// parent's interval (a cache get under DoCompiled, a shard fetch under the
// coordinator) counts by the part of the interval the children cover
// together, so parallel children are not subtracted twice; a child that ran
// after the parent returned (the next-deeper layer of a peeled ladder,
// replayed on the same request) counts by its whole duration.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		total := p.durNS()
		type iv struct{ lo, hi int64 }
		var nested []iv
		for _, c := range children[p.ID] {
			if c.StartNS >= p.StartNS && c.StartNS < p.EndNS {
				// A hedged fetch may still be running when the coordinator
				// answers: only the part inside the parent counts.
				nested = append(nested, iv{c.StartNS, min(c.EndNS, p.EndNS)})
			} else {
				total -= c.durNS()
			}
		}
		sort.Slice(nested, func(i, j int) bool { return nested[i].lo < nested[j].lo })
		var hi int64 = -1 << 62
		for _, v := range nested {
			if v.hi <= hi {
				continue
			}
			total -= v.hi - max(v.lo, hi)
			hi = v.hi
		}
		self[p.ID] = total
	}
	return self
}

// writeJSONL writes the spans one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
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
