package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one call into a layer: its name (layer.operation), the
// indicator, cluster or feed it worked on, its parent span (-1 for a
// root) and its interval since the recorder started.
type span struct {
	Name   string        `json:"name"`
	Key    string        `json:"key,omitempty"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory for one goroutine: a span begun while
// another is open becomes its child. A disabled recorder records nothing
// and costs a branch per call.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when disabled).
func (r *recorder) begin(name, key string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Key: key, Parent: parent, Start: time.Since(r.t0)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

// elapsed is the time since the recorder started.
func (r *recorder) elapsed() time.Duration { return time.Since(r.t0) }

// durations lists the durations of every span named name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
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

// accounting splits wall time over the spans: each span's self time is
// its duration minus the part of it its children cover, and the time no
// root span covers is unattributed. Self times plus unattributed equal
// the wall time when children lie within their parents.
type accounting struct {
	self         map[string]time.Duration
	unattributed time.Duration
}

func account(spans []span, wall time.Duration) accounting {
	children := make(map[int][]int)
	var roots []int
	for i, s := range spans {
		if s.Parent < 0 {
			roots = append(roots, i)
		} else {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	a := accounting{self: make(map[string]time.Duration)}
	for i, s := range spans {
		a.self[s.Name] += (s.End - s.Start) - covered(spans, children[i], s.Start, s.End)
	}
	a.unattributed = wall - covered(spans, roots, 0, wall)
	return a
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}
