package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// The corpus generator is the benchmark's own, frozen copy: the requests a
// seed yields must not change when rsgen's DAG generator, random number
// generator or JSON encoding change, or two commits would be measured on
// different traffic.

// rng is a SplitMix64 generator.
type rng struct{ state uint64 }

const golden = 0x9E3779B97F4A7C15

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newRNG derives a generator from a seed and stream labels; equal
// (seed, labels...) give the same stream.
func newRNG(seed uint64, labels ...uint64) *rng {
	r := &rng{state: seed}
	for _, l := range labels {
		r.state = mix64(r.state ^ mix64(l))
	}
	return r
}

func (r *rng) uint64() uint64 {
	r.state += golden
	return mix64(r.state)
}

func (r *rng) split() *rng { return &rng{state: r.uint64()} }

// float64 is uniform in [0, 1).
func (r *rng) float64() float64 { return float64(r.uint64()>>11) / (1 << 53) }

func (r *rng) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float64() }

// intn is uniform in [0, n); n must be positive.
func (r *rng) intn(n int) int { return int(r.uint64() % uint64(n)) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// sample draws k distinct indices from [0, n) by a partial Fisher–Yates.
func (r *rng) sample(n, k int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

type task struct {
	name string
	cost float64
}

type edge struct {
	from, to int
	cost     float64
}

// graph is a request DAG in rsgend's wire form: task i has ID i.
type graph struct {
	tasks []task
	edges []edge
}

// genSpec are the target characteristics of a generated DAG, as in the
// paper's random-DAG model: n tasks in round(n/n^parallelism) levels of
// near-equal size, each task depending on density × the previous level,
// costs uniform around meanCost and every edge costing ccr × its parent.
type genSpec struct {
	size                int
	ccr, parallelism    float64
	density, regularity float64
	meanCost            float64
}

func generate(s genSpec, r *rng) *graph {
	n := s.size
	tau := math.Pow(float64(n), s.parallelism)
	h := min(max(int(math.Round(float64(n)/tau)), 1), n)
	mean := float64(n) / float64(h)
	disp := (1 - s.regularity) * mean
	lo := int(math.Max(1, math.Ceil(mean-disp)))
	hi := max(int(math.Floor(mean+disp)), lo)
	sizes := make([]int, h)
	total := 0
	for l := range sizes {
		sizes[l] = lo + r.intn(hi-lo+1)
		total += sizes[l]
	}
	// Bring the level sizes to n total, one task at a time.
	for l := 0; total != n; l = (l + 1) % h {
		switch {
		case total < n:
			sizes[l]++
			total++
		case sizes[l] > 1:
			sizes[l]--
			total--
		}
	}

	g := &graph{tasks: make([]task, 0, n)}
	start := make([]int, h+1)
	for l, sz := range sizes {
		start[l+1] = start[l] + sz
		for i := 0; i < sz; i++ {
			g.tasks = append(g.tasks, task{
				name: "t" + strconv.Itoa(len(g.tasks)),
				cost: r.uniform(0.5*s.meanCost, 1.5*s.meanCost),
			})
		}
	}
	for l := 1; l < h; l++ {
		prev := sizes[l-1]
		parents := min(max(int(math.Round(s.density*float64(prev))), 1), prev)
		for v := start[l]; v < start[l+1]; v++ {
			for _, p := range r.sample(prev, parents) {
				p += start[l-1]
				g.edges = append(g.edges, edge{p, v, s.ccr * g.tasks[p].cost})
			}
		}
	}
	return g
}

// relabel builds an isomorph of g: task IDs permuted, names changed, edges
// shuffled. Same shape and costs, different bytes.
func relabel(g *graph, r *rng) *graph {
	n := len(g.tasks)
	perm := r.perm(n)
	out := &graph{tasks: make([]task, n), edges: make([]edge, len(g.edges))}
	for old, t := range g.tasks {
		out.tasks[perm[old]] = task{name: fmt.Sprintf("t%d-%d", perm[old], r.intn(1<<16)), cost: t.cost}
	}
	for k, e := range g.edges {
		out.edges[k] = edge{perm[e.from], perm[e.to], e.cost}
	}
	r.shuffle(len(out.edges), func(i, j int) { out.edges[i], out.edges[j] = out.edges[j], out.edges[i] })
	return out
}

// json renders g as {"tasks":[{"id","name","cost"}],"edges":[{"from","to","cost"}]}.
func (g *graph) json() []byte {
	var b bytes.Buffer
	b.WriteString(`{"tasks":[`)
	for i, t := range g.tasks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"name":%q,"cost":%s}`, i, t.name, num(t.cost))
	}
	b.WriteString(`],"edges":[`)
	for i, e := range g.edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"from":%d,"to":%d,"cost":%s}`, e.from, e.to, num(e.cost))
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// num formats a float as the shortest decimal that reads back exactly.
func num(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
