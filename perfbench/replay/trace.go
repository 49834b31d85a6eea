package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run writes them out. A nil
// *tracer records nothing, so the untraced replay runs the same code. The
// parent of a new span is the innermost open span: the replay calls layers
// from one goroutine, and the store and sink wrappers run synchronously
// inside the broker call that invokes them.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
	trace int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// startTrace opens a new root span under a fresh trace id.
func (t *tracer) startTrace(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.trace++
	t.open = t.open[:0]
	t.mu.Unlock()
	return t.begin(name)
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id (and any span left open inside it).
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			break
		}
	}
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerStat is one layer's aggregate over a traced run.
type layerStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// layerStats aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its children; children that
// overlap each other are counted once.
func layerStats(spans []span) []layerStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerStat{}
	var order []string
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - covered(s, children[s.ID]))
	}
	out := make([]layerStat, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			sum += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		sum += curB - curA
	}
	return sum
}
