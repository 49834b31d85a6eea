package main

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts operations and their outcomes across one phase.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
	lat       []float64 // ms per request; open loop: from when it was due
	ok        []bool    // per latency sample: the op did not fail
}

func (t *tally) add(units, failed int, err error, ms float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += units
	t.failed += failed
	if err != nil && t.firstErr == nil {
		t.firstErr = err
	}
	t.lat = append(t.lat, ms)
	t.ok = append(t.ok, failed == 0)
}

// closedResult is one closed-loop phase.
type closedResult struct {
	tally
	elapsed time.Duration
}

// completed counts units that succeeded.
func (t *tally) completed() int { return t.attempted - t.failed }

// closedLoop runs `clients` workers that each send their next op as soon as
// the previous one answered, until d has passed. next hands out op indices,
// continuing the corpus across phases.
func closedLoop(w workload, c *client, next *atomic.Int64, d time.Duration) *closedResult {
	r := &closedResult{}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := w.prepare(int(next.Add(1) - 1))
				o.worker = worker
				t0 := time.Now()
				failed, err := w.run(c, o)
				r.add(o.units, failed, err, float64(time.Since(t0))/1e6)
			}
		}(k)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	return r
}

// openResult is one open-loop phase.
type openResult struct {
	tally
	scheduled int
	dropped   int
	lag       []float64 // ms the sender ran behind each op's due time
	sloMet    int
}

// openBacklog bounds ops waiting for a free connection; an op arriving to a
// full backlog is dropped and counted as failed. 64 is several seconds of
// backlog at every workload's rate, so a drop means the server fell behind.
const openBacklog = 64

var errDropped = errors.New("open loop: backlog full, op dropped")

// openLoop sends ops at a fixed rate for d regardless of how fast they are
// answered, through `clients` connections. Each op is timed from when it was
// due, so a stall also charges the ops queued behind it. Request bodies are
// prepared before the phase starts.
func openLoop(w workload, c *client, next *atomic.Int64, rate float64, d time.Duration, limit time.Duration) *openResult {
	n := int(math.Round(rate * d.Seconds()))
	first := int(next.Add(int64(n)) - int64(n))
	ops := make([]*op, n)
	for k := range ops {
		ops[k] = w.prepare(first + k)
	}
	r := &openResult{scheduled: n, lag: make([]float64, 0, n)}
	type job struct {
		o   *op
		due time.Time
	}
	queue := make(chan job, openBacklog)
	var wg sync.WaitGroup
	var met atomic.Int64
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := range queue {
				j.o.worker = worker
				failed, err := w.run(c, j.o)
				took := time.Since(j.due)
				if failed == 0 && took <= limit {
					met.Add(1)
				}
				r.add(j.o.units, failed, err, float64(took)/1e6)
			}
		}(k)
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	for k, o := range ops {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r.lag = append(r.lag, float64(time.Since(due))/1e6)
		select {
		case queue <- job{o: o, due: due}:
		default:
			r.dropped++
			r.add(o.units, o.units, errDropped, 0)
		}
	}
	close(queue)
	wg.Wait()
	r.sloMet = int(met.Load())
	return r
}

// latencies returns the sorted latencies of the ops that succeeded.
func (t *tally) latencies() []float64 {
	var xs []float64
	for k, v := range t.lat {
		if t.ok[k] {
			xs = append(xs, v)
		}
	}
	sort.Float64s(xs)
	return xs
}
