package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeServer answers each path with a canned body.
func fakeServer(t *testing.T, answers map[string]string) *client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := answers[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	c := newClient(ts.URL)
	t.Cleanup(c.close)
	return c
}

func wantViolation(t *testing.T, chk *checker, substr string) {
	t.Helper()
	err := chk.err()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("want a violation mentioning %q, got %v", substr, err)
	}
}

func TestSpecHotCheckTripsOnBatchMismatch(t *testing.T) {
	chk := &checker{}
	w := &specHot{chk: chk, canon: map[int][]byte{}}
	c := fakeServer(t, map[string]string{
		"/v1/spec":       `{"rc_size":3}` + "\n",
		"/v1/spec/batch": `{"results":[{"index":0,"status":200,"spec":{"rc_size":4}}]}`,
	})
	if _, err := w.run(c, &op{path: "/v1/spec", units: 1, keys: []int{7}}); err != nil {
		t.Fatal(err)
	}
	if err := chk.err(); err != nil {
		t.Fatalf("first answer is the reference: %v", err)
	}
	if _, err := w.run(c, &op{path: "/v1/spec/batch", units: 1, keys: []int{7}, batch: true}); err != nil {
		t.Fatal(err)
	}
	wantViolation(t, chk, "different bytes")
}

func TestSpecColdCheckTrips(t *testing.T) {
	chk := &checker{}
	w := &specCold{chk: chk}
	c := fakeServer(t, map[string]string{"/v1/spec": `{"heuristic":"MCP","rc_size":0}`})
	if _, err := w.run(c, &op{path: "/v1/spec", units: 1}); err != nil {
		t.Fatal(err)
	}
	wantViolation(t, chk, "malformed spec")
	chk = &checker{}
	w = &specCold{chk: chk}
	_ = w.finish(c)
	wantViolation(t, chk, "no request found an alternative")
}

// fakeBroker stands in for rsgend's lease endpoints. Select n (from 1)
// answers lease-n on hosts(n); each release answers released and, when it
// is true, adds one observation.
type fakeBroker struct {
	hosts    func(n int) string
	released string
	active   int
	selects  atomic.Int64
	observed atomic.Int64
}

func (f *fakeBroker) client(t *testing.T) *client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/select":
			n := int(f.selects.Add(1))
			fmt.Fprintf(w, `{"lease_id":"lease-%d","hosts":%s,"predicted_turn_around_seconds":10}`, n, f.hosts(n))
		case "/v1/release":
			if f.released == `{"released":true}` {
				f.observed.Add(1)
			}
			fmt.Fprint(w, f.released)
		case "/v1/platform":
			fmt.Fprintf(w, `{"leases":{"active_leases":%d}}`, f.active)
		case "/v1/observations":
			fmt.Fprintf(w, `{"total":%d}`, f.observed.Load())
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	c := newClient(ts.URL)
	t.Cleanup(c.close)
	return c
}

// runClients runs ops selects on each of two concurrent clients.
func runClients(t *testing.T, w *lifecycle, c *client, ops int) {
	t.Helper()
	var wg sync.WaitGroup
	for worker := 0; worker < 2; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if _, err := w.run(c, &op{i: i, path: "/v1/select", units: 1, factor: 1, worker: worker}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

func TestLifecycleCatchesDoubleLease(t *testing.T) {
	// Distinct hosts per lease: no violation, and the end checks pass.
	f := &fakeBroker{released: `{"released":true}`, hosts: func(n int) string { return fmt.Sprintf("[%d,%d]", 2*n, 2*n+1) }}
	c := f.client(t)
	chk := &checker{}
	w := &lifecycle{chk: chk, held: map[int]string{}, kept: map[int]*keptLease{}}
	runClients(t, w, c, 5)
	if err := w.finish(c); err != nil {
		t.Fatal(err)
	}
	if err := chk.err(); err != nil {
		t.Fatalf("distinct hosts must pass: %v", err)
	}
	if got := w.releases.Load(); got != 10 {
		t.Errorf("released %d leases, want all 10", got)
	}

	// Every lease on host 5: the second select finds it held, whichever
	// client sends it.
	f = &fakeBroker{released: `{"released":true}`, hosts: func(int) string { return "[5]" }}
	c = f.client(t)
	chk = &checker{}
	w = &lifecycle{chk: chk, held: map[int]string{}, kept: map[int]*keptLease{}}
	runClients(t, w, c, 3)
	wantViolation(t, chk, "host 5 leased to lease-")
}

func TestLifecycleChecksTrip(t *testing.T) {
	distinct := func(n int) string { return fmt.Sprintf("[%d]", n) }
	o := &op{path: "/v1/select", units: 1, factor: 1}

	// The first op keeps its lease; the second releases it.
	f := &fakeBroker{released: `{"released":false}`, hosts: distinct}
	c := f.client(t)
	chk := &checker{}
	w := &lifecycle{chk: chk, held: map[int]string{}, kept: map[int]*keptLease{}}
	for k := 0; k < 2; k++ {
		if _, err := w.run(c, o); err != nil {
			t.Fatal(err)
		}
	}
	wantViolation(t, chk, "release of lease-1")

	// A lease left active at the end, and observations that did not grow.
	f = &fakeBroker{released: `{"released":true}`, hosts: distinct, active: 1}
	c = f.client(t)
	chk = &checker{}
	w = &lifecycle{chk: chk, held: map[int]string{}, kept: map[int]*keptLease{}}
	if _, err := w.run(c, o); err != nil {
		t.Fatal(err)
	}
	w.obsBase = 1
	if err := w.finish(c); err != nil {
		t.Fatal(err)
	}
	wantViolation(t, chk, "2 output check(s) failed")
}

func TestAdviseChecksTrip(t *testing.T) {
	good := `{"masked_hosts":3,"front":[` +
		`{"hosts":[1],"objectives":{"turn_around_seconds":1,"cost_usd":2,"power_watts":1,"fragmentation":1}},` +
		`{"hosts":[2],"objectives":{"turn_around_seconds":2,"cost_usd":1,"power_watts":1,"fragmentation":1}}]}`
	answers := map[string]string{"/v1/advise": good}
	c := fakeServer(t, answers)
	run := func(chk *checker, w *advise) {
		t.Helper()
		if _, err := w.run(c, &op{path: "/v1/advise", units: 1, keys: []int{0}}); err != nil {
			t.Fatal(err)
		}
	}

	chk := &checker{}
	w := &advise{chk: chk, first: map[int][]byte{}}
	run(chk, w)
	if err := chk.err(); err != nil {
		t.Fatalf("a non-dominated front must pass: %v", err)
	}
	answers["/v1/advise"] = strings.Replace(good, `"cost_usd":1`, `"cost_usd":3`, 1)
	run(chk, w)
	wantViolation(t, chk, "front solution 0 dominates solution 1")
	wantViolation(t, chk, "2 output check(s) failed") // and the repeat's bytes differ

	answers["/v1/advise"] = strings.Replace(good, `"masked_hosts":3`, `"masked_hosts":0`, 1)
	chk = &checker{}
	run(chk, &advise{chk: chk, first: map[int][]byte{}})
	wantViolation(t, chk, "empty exclusion mask")
}

func TestCorpusIsDeterministicPerSeed(t *testing.T) {
	for _, wl := range workloads {
		a, err := wl.make(42, &checker{})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := wl.make(42, &checker{})
		c, _ := wl.make(43, &checker{})
		differs := false
		for _, i := range []int{0, 1, 5, 99, 1000} {
			oa, ob, oc := a.prepare(i), b.prepare(i), c.prepare(i)
			if !bytes.Equal(oa.body, ob.body) {
				t.Errorf("%s op %d: same seed, different bytes", wl.name, i)
			}
			differs = differs || !bytes.Equal(oa.body, oc.body)
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 gave identical requests", wl.name)
		}
	}
}

// TestRequestsFitDefaultBodyLimit keeps every generated request inside
// rsgend's default -max-body, so no op fails with 413.
func TestRequestsFitDefaultBodyLimit(t *testing.T) {
	const maxBody = 1 << 20
	for _, wl := range workloads {
		for seed := uint64(1); seed <= 2; seed++ {
			w, err := wl.make(seed, &checker{})
			if err != nil {
				t.Fatal(err)
			}
			largest := 0
			for i := 0; i < 300; i++ {
				largest = max(largest, len(w.prepare(i).body))
			}
			if largest > maxBody/2 {
				t.Errorf("%s seed %d: a %d-byte request is within 2x of the %d-byte limit", wl.name, seed, largest, maxBody)
			}
		}
	}
}

// TestCorpusIsFrozen pins the bytes seed 1 sends on every workload. The
// generator is the benchmark's own so that two commits see the same
// traffic; a change here changes the benchmark and its baseline.
func TestCorpusIsFrozen(t *testing.T) {
	want := map[string]string{
		"spec-hot":  "a962a53ace9a8142",
		"spec-cold": "c3fe08c9fd465b7d",
		"lifecycle": "f898bf2dcea4b43a",
		"advise":    "17ce5e3c390d2736",
	}
	for _, wl := range workloads {
		w, err := wl.make(1, &checker{})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i := 0; i < 50; i++ {
			h.Write(w.prepare(i).body)
		}
		got := hex.EncodeToString(h.Sum(nil))[:16]
		if want[wl.name] != got {
			t.Errorf("%s: corpus digest %s, want %s", wl.name, got, want[wl.name])
		}
	}
}
