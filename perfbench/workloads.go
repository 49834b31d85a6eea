package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// op is one benchmark operation: one HTTP request, or for lifecycle one
// select+release pair, with what its answer is checked against.
type op struct {
	i        int
	path     string
	body     []byte
	units    int      // operations it counts for: batch members, else 1
	keys     []int    // spec-hot: duplicate group per member; advise: pool slot
	dags     [][]byte // request DAGs, for the in-process replay
	batch    bool
	backends []string // lifecycle: the selection backends asked for, in order
	factor   float64  // lifecycle: observed over predicted makespan reported on release
	worker   int      // the client connection that sends it, set by the load loop
}

// workload is one traffic mix. prepare is a pure function of the seed and
// the op index, so a seed always yields the same requests.
type workload interface {
	// setup brings a fresh server to the workload's starting state
	// (inventory, held leases) and resets per-server bookkeeping.
	setup(c *client) error
	prepare(i int) *op
	// run sends op o and checks the answer: a transport error or non-2xx
	// status is returned as a failure (failed counts units), a wrong answer
	// is reported to the checker and fails the whole run.
	run(c *client, o *op) (failed int, err error)
	// finish runs the end-of-run checks.
	finish(c *client) error
}

// wlSpec describes one workload for the run and for BENCHMARK.json.
type wlSpec struct {
	name    string
	rate    float64       // open-loop requests per second
	limit   time.Duration // SLO latency limit
	durable bool          // -state-dir and -obs-dir
	sample  int           // ops per traced-replay pass
	make    func(seed uint64, chk *checker) (workload, error)
}

// Each latency limit sits near the workload's open-loop p90 on the
// reference 2-core machine, so slo_attainment reads about 0.9 and moves
// with the tail rather than resting at 1.
var workloads = []wlSpec{
	{name: "spec-hot", rate: 68, limit: 5 * time.Millisecond, sample: 400, make: newSpecHot},
	{name: "spec-cold", rate: 40, limit: 15 * time.Millisecond, sample: 60, make: newSpecCold},
	{name: "lifecycle", rate: 40, limit: 19 * time.Millisecond, durable: true, sample: 120, make: newLifecycle},
	{name: "advise", rate: 21, limit: 50 * time.Millisecond, sample: 24, make: newAdvise},
}

func lookupWorkload(name string) (wlSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return wlSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// checker collects output-check violations from concurrent clients.
type checker struct {
	mu    sync.Mutex
	n     int
	first string
}

func (c *checker) violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		c.first = fmt.Sprintf(format, args...)
	}
	c.n++
}

func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return nil
	}
	return fmt.Errorf("%d output check(s) failed; first: %s", c.n, c.first)
}

// Corpus generation.

// Stream labels keep each workload's random draws independent of the others.
const (
	streamHot uint64 = iota + 0xbe7c4
	streamCold
	streamLife
	streamAdvise
)

// genDAG draws the k-th DAG of a stream. Its size and parallelism follow
// low-discrepancy sequences over their ranges, the same for every seed, so
// any run of DAGs covers both evenly and seeds differ only in structure,
// CCR and costs. Drawing them at random made a seed's mean cost, and with
// it every figure, depend on the draw. Parallelism and density are capped
// so a 400-task DAG stays well inside rsgend's default 1 MiB body limit:
// wide, dense levels give hundreds of parents per level and bodies over it.
func genDAG(r *rng, k, lo, hi int) *graph {
	return generate(genSpec{
		size:        lo + int(weyl(k, 0.6180339887498949)*float64(hi-lo+1)),
		ccr:         r.uniform(0.1, 1.0),
		parallelism: 0.4 + 0.3*weyl(k, 0.4142135623730951),
		density:     r.uniform(0.1, 0.3),
		regularity:  0.5,
		meanCost:    40,
	}, r.split())
}

// weyl is the fractional part of (k+1)·alpha: for irrational alpha the
// sequence fills [0, 1) evenly.
func weyl(k int, alpha float64) float64 {
	x := float64(k+1) * alpha
	return x - math.Floor(x)
}

// spec-hot: duplicate-heavy /v1/spec and /v1/spec/batch traffic.

const (
	hotItems     = 2048 // distinct member bodies per corpus cycle
	hotBatchSize = 8
	hotBatchEach = 4 // every 4th request is a batch
)

// hotMix is BENCH_8's unique:shape-duplicate:byte-duplicate ratio.
var hotMix = [3]int{1, 12, 7}

type hotItem struct {
	group int // index of the unique DAG this item is a copy or isomorph of
	body  []byte
}

// hotCorpus builds the member stream: kinds interleave by weight, and each
// duplicate refers back to a uniformly chosen earlier unique DAG. About
// 100 shapes and 1,300 relabeled variants give ~1,400 cache keys per cycle,
// more than rsgend's 1,024-entry response cache holds.
func hotCorpus(seed uint64) []hotItem {
	r := newRNG(seed, streamHot)
	total := hotMix[0] + hotMix[1] + hotMix[2]
	var uniques []*graph
	var uniqueBodies [][]byte
	items := make([]hotItem, 0, hotItems)
	for i := 0; len(items) < hotItems; i++ {
		k := i % total
		switch {
		case k < hotMix[0] || len(uniques) == 0:
			g := genDAG(r, len(uniques), 8, 64)
			uniques, uniqueBodies = append(uniques, g), append(uniqueBodies, g.json())
			items = append(items, hotItem{group: len(uniques) - 1, body: uniqueBodies[len(uniques)-1]})
		case k < hotMix[0]+hotMix[1]:
			u := r.intn(len(uniques))
			items = append(items, hotItem{group: u, body: relabel(uniques[u], r).json()})
		default:
			u := r.intn(len(uniques))
			items = append(items, hotItem{group: u, body: uniqueBodies[u]})
		}
	}
	return items
}

type specHot struct {
	reqs  []*op
	chk   *checker
	mu    sync.Mutex
	canon map[int][]byte // group → the spec bytes first seen for it
}

func newSpecHot(seed uint64, chk *checker) (workload, error) {
	items := hotCorpus(seed)
	w := &specHot{chk: chk, canon: map[int][]byte{}}
	for next, r := 0, 0; next < len(items); r++ {
		n := 1
		if r%hotBatchEach == hotBatchEach-1 {
			n = min(hotBatchSize, len(items)-next)
		}
		o := &op{units: n, batch: n > 1}
		var body bytes.Buffer
		if o.batch {
			o.path = "/v1/spec/batch"
			body.WriteString(`{"requests":[`)
		} else {
			o.path = "/v1/spec"
		}
		for k, it := range items[next : next+n] {
			if k > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"dag":%s}`, it.body)
			o.keys = append(o.keys, it.group)
			o.dags = append(o.dags, it.body)
		}
		if o.batch {
			body.WriteString(`]}`)
		}
		o.body = body.Bytes()
		w.reqs = append(w.reqs, o)
		next += n
	}
	return w, nil
}

func (w *specHot) setup(c *client) error {
	w.mu.Lock()
	w.canon = map[int][]byte{}
	w.mu.Unlock()
	return nil
}

func (w *specHot) prepare(i int) *op {
	o := *w.reqs[i%len(w.reqs)]
	o.i = i
	return &o
}

// check pins the differential oracle: every answer for a duplicate group —
// single or batch member, byte or shape duplicate — equals the first.
func (w *specHot) check(group int, spec []byte) {
	spec = bytes.TrimSpace(spec)
	w.mu.Lock()
	first, ok := w.canon[group]
	if !ok {
		w.canon[group] = append([]byte(nil), spec...)
	}
	w.mu.Unlock()
	if ok && !bytes.Equal(first, spec) {
		w.chk.violate("spec-hot: group %d answered with different bytes:\n%s\nvs first\n%s", group, spec, first)
	}
}

type batchResponse struct {
	Results []struct {
		Index  int             `json:"index"`
		Status int             `json:"status"`
		Spec   json.RawMessage `json:"spec"`
		Error  string          `json:"error"`
	} `json:"results"`
}

func (w *specHot) run(c *client, o *op) (int, error) {
	b, err := c.send(http.MethodPost, o.path, o.body)
	if err != nil {
		return o.units, err
	}
	if !o.batch {
		w.check(o.keys[0], b)
		return 0, nil
	}
	var br batchResponse
	if err := json.Unmarshal(b, &br); err != nil {
		w.chk.violate("spec-hot: batch response is not JSON: %v", err)
		return o.units, nil
	}
	if len(br.Results) != o.units {
		w.chk.violate("spec-hot: batch of %d answered %d results", o.units, len(br.Results))
		return o.units, nil
	}
	failed := 0
	var ferr error
	for k, r := range br.Results {
		if r.Index != k {
			w.chk.violate("spec-hot: batch result %d has index %d", k, r.Index)
			continue
		}
		if r.Status != http.StatusOK {
			failed++
			ferr = fmt.Errorf("batch member %d: status %d: %s", k, r.Status, r.Error)
			continue
		}
		w.check(o.keys[k], r.Spec)
	}
	return failed, ferr
}

func (w *specHot) finish(c *client) error { return nil }

// spec-cold: all-unique large DAGs with alternative clocks.

// coldOptions asks for two slower clock classes. A 10% tolerance lets some
// DAGs (not all) find an equivalent slower collection.
const coldOptions = `{"clock_ghz":2.8,"alternative_clocks":[2.4,2.0],"alternative_tolerance":0.1}`

type specCold struct {
	seed  uint64
	chk   *checker
	found atomic.Int64
}

func newSpecCold(seed uint64, chk *checker) (workload, error) {
	return &specCold{seed: seed, chk: chk}, nil
}

func (w *specCold) setup(c *client) error { w.found.Store(0); return nil }

func (w *specCold) prepare(i int) *op {
	b := genDAG(newRNG(w.seed, streamCold, uint64(i)), i, 100, 400).json()
	return &op{i: i, path: "/v1/spec", units: 1, dags: [][]byte{b},
		body: []byte(fmt.Sprintf(`{"dag":%s,"options":%s}`, b, coldOptions))}
}

func (w *specCold) run(c *client, o *op) (int, error) {
	b, err := c.send(http.MethodPost, o.path, o.body)
	if err != nil {
		return 1, err
	}
	var r struct {
		Heuristic    string            `json:"heuristic"`
		RCSize       int               `json:"rc_size"`
		Alternatives []json.RawMessage `json:"alternatives"`
	}
	if err := json.Unmarshal(b, &r); err != nil || r.RCSize < 1 || r.Heuristic == "" {
		w.chk.violate("spec-cold: op %d: malformed spec (err %v): %s", o.i, err, b)
		return 0, nil
	}
	if len(r.Alternatives) > 0 {
		w.found.Add(1)
	}
	return 0, nil
}

func (w *specCold) finish(c *client) error {
	if w.found.Load() == 0 {
		w.chk.violate("spec-cold: no request found an alternative specification")
	}
	return nil
}

// Inventory shared by lifecycle and advise: 64 clusters from 2006, 2,689
// hosts, every manager dedicated. Queue-wait managers are left out because
// their retry backoff would make the benchmark time a timer.
const (
	platformBody  = `{"generate":{"clusters":64,"year":2006,"seed":3}}`
	platformHosts = 2689
	selectOptions = `{"clock_ghz":2.8,"heterogeneity_tolerance":0.2}`
)

func registerInventory(c *client) error {
	b, err := c.send(http.MethodPut, "/v1/platform", []byte(platformBody))
	if err != nil {
		return err
	}
	var r struct {
		Hosts int `json:"hosts"`
	}
	if err := json.Unmarshal(b, &r); err != nil || r.Hosts != platformHosts {
		return fmt.Errorf("PUT /v1/platform: want %d hosts, got %s", platformHosts, b)
	}
	return nil
}

// dagPool pre-generates n DAG bodies.
func dagPool(seed, stream uint64, n, lo, hi int) [][]byte {
	r := newRNG(seed, stream)
	pool := make([][]byte, n)
	for i := range pool {
		pool[i] = genDAG(r, i, lo, hi).json()
	}
	return pool
}

type selectResponse struct {
	LeaseID   string  `json:"lease_id"`
	Hosts     []int   `json:"hosts"`
	Predicted float64 `json:"predicted_turn_around_seconds"`
}

type releaseResponse struct {
	Released bool `json:"released"`
}

func selectBody(d []byte, backends []string, ttl int) []byte {
	b, _ := json.Marshal(backends) // a []string always marshals
	return []byte(fmt.Sprintf(`{"dag":%s,"options":%s,"backends":%s,"ttl_seconds":%d}`, d, selectOptions, b, ttl))
}

// lifecycle: select → release through the durable broker.

var lifecycleBackends = []string{"vgdl", "classad", "sword"}

type lifecycle struct {
	seed     uint64
	pool     [][]byte
	chk      *checker
	mu       sync.Mutex
	held     map[int]string // host → live lease holding it
	kept     map[int]*keptLease
	releases atomic.Int64
	obsBase  int
}

// keptLease is the lease a client holds until its next select answers.
type keptLease struct {
	id       string
	hosts    []int
	observed float64 // makespan reported on release
}

func newLifecycle(seed uint64, chk *checker) (workload, error) {
	return &lifecycle{seed: seed, pool: dagPool(seed, streamLife, 128, 20, 60), chk: chk,
		held: map[int]string{}, kept: map[int]*keptLease{}}, nil
}

func observationTotal(c *client) (int, error) {
	b, err := c.send(http.MethodGet, "/v1/observations?limit=1", nil)
	if err != nil {
		return 0, err
	}
	var r struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return 0, fmt.Errorf("GET /v1/observations: %v", err)
	}
	return r.Total, nil
}

func (w *lifecycle) setup(c *client) error {
	if err := registerInventory(c); err != nil {
		return err
	}
	w.mu.Lock()
	w.held, w.kept = map[int]string{}, map[int]*keptLease{}
	w.mu.Unlock()
	w.releases.Store(0)
	var err error
	w.obsBase, err = observationTotal(c)
	return err
}

// prepare rotates which backend leads. The other two follow as the rung's
// fallbacks: with two clients selecting at once, the leader can lose every
// acquisition race to the other client's lease, and a client would then
// fall back rather than fail.
func (w *lifecycle) prepare(i int) *op {
	d := w.pool[i%len(w.pool)]
	k := i % len(lifecycleBackends)
	b := append(append([]string(nil), lifecycleBackends[k:]...), lifecycleBackends[:k]...)
	// The reported makespan varies around the prediction, deterministically
	// per op, so the accuracy series see a spread of errors.
	f := 0.8 + 0.4*newRNG(w.seed, streamLife, uint64(i)).float64()
	return &op{i: i, path: "/v1/select", units: 1, dags: [][]byte{d}, backends: b, factor: f, body: selectBody(d, b, 300)}
}

// run selects, then releases the lease the same client took in its
// previous op. Every lease thus stays marked held from its select answer
// until the next select of its client has answered, while the other
// client's selects run: a host rsgend hands out twice meets its mark. A
// mark is dropped just before its release is sent, so it never outlives
// the lease on the server.
func (w *lifecycle) run(c *client, o *op) (int, error) {
	b, err := c.send(http.MethodPost, o.path, o.body)
	if err != nil {
		return 1, err
	}
	var s selectResponse
	if err := json.Unmarshal(b, &s); err != nil || s.LeaseID == "" || len(s.Hosts) == 0 {
		w.chk.violate("lifecycle: op %d: malformed select answer (err %v): %s", o.i, err, b)
		return 0, nil
	}
	w.mu.Lock()
	for _, h := range s.Hosts {
		if other, taken := w.held[h]; taken {
			w.chk.violate("lifecycle: host %d leased to %s while %s holds it", h, s.LeaseID, other)
			continue
		}
		w.held[h] = s.LeaseID
	}
	prev := w.kept[o.worker]
	w.kept[o.worker] = &keptLease{id: s.LeaseID, hosts: s.Hosts, observed: s.Predicted * o.factor}
	w.unmark(prev)
	w.mu.Unlock()
	if prev == nil {
		return 0, nil
	}
	if err := w.release(c, prev); err != nil {
		return 1, err
	}
	return 0, nil
}

// unmark drops l's marks; the caller holds w.mu.
func (w *lifecycle) unmark(l *keptLease) {
	if l == nil {
		return
	}
	for _, h := range l.hosts {
		if w.held[h] == l.id {
			delete(w.held, h)
		}
	}
}

func (w *lifecycle) release(c *client, l *keptLease) error {
	rb, err := c.send(http.MethodPost, "/v1/release",
		[]byte(fmt.Sprintf(`{"lease_id":%q,"observed_seconds":%g}`, l.id, l.observed)))
	if err != nil {
		return err
	}
	var r releaseResponse
	if err := json.Unmarshal(rb, &r); err != nil || !r.Released {
		w.chk.violate("lifecycle: release of %s answered %s", l.id, rb)
		return nil
	}
	w.releases.Add(1)
	return nil
}

func activeLeases(c *client) (int, error) {
	b, err := c.send(http.MethodGet, "/v1/platform", nil)
	if err != nil {
		return 0, err
	}
	var r struct {
		Leases struct {
			Active int `json:"active_leases"`
		} `json:"leases"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return 0, fmt.Errorf("GET /v1/platform: %v", err)
	}
	return r.Leases.Active, nil
}

// finish releases the leases the clients still hold, then checks that none
// is left and that every release was observed.
func (w *lifecycle) finish(c *client) error {
	w.mu.Lock()
	kept := w.kept
	w.kept = map[int]*keptLease{}
	for _, l := range kept {
		w.unmark(l)
	}
	w.mu.Unlock()
	for _, l := range kept {
		if err := w.release(c, l); err != nil {
			return err
		}
	}
	active, err := activeLeases(c)
	if err != nil {
		return err
	}
	if active != 0 {
		w.chk.violate("lifecycle: %d leases still active after every release", active)
	}
	total, err := observationTotal(c)
	if err != nil {
		return err
	}
	if grew, rel := total-w.obsBase, int(w.releases.Load()); grew != rel {
		w.chk.violate("lifecycle: observations grew by %d over %d releases", grew, rel)
	}
	return nil
}

// advise: Pareto-front searches over the same inventory with held leases.

const (
	advisePool = 96 // distinct requests; later ops repeat them
	adviseHeld = 6  // leases held for the whole run
	// adviseSearch bounds each search (≈270 evaluations) so one run sees
	// enough searches for a p90.
	adviseSearch = `{"population":16,"generations":16,"seed":%d}`
)

// adviseSeed is the search seed of the requests for pool slot k.
func adviseSeed(k int) uint64 { return uint64(1000 + k) }

type advise struct {
	pool  [][]byte
	chk   *checker
	held  []string
	mu    sync.Mutex
	first map[int][]byte // pool slot → first answer
}

func newAdvise(seed uint64, chk *checker) (workload, error) {
	pool := dagPool(seed, streamAdvise, advisePool+1, 40, 80)
	return &advise{pool: pool, chk: chk, first: map[int][]byte{}}, nil
}

// setup takes the held leases with pool[advisePool], a DAG no advise op
// uses, so the exclusion mask every search sees is non-empty and fixed.
func (w *advise) setup(c *client) error {
	if err := registerInventory(c); err != nil {
		return err
	}
	w.held = w.held[:0]
	for k := 0; k < adviseHeld; k++ {
		b, err := c.send(http.MethodPost, "/v1/select", selectBody(w.pool[advisePool], []string{"vgdl"}, 3600))
		if err != nil {
			return err
		}
		var s selectResponse
		if err := json.Unmarshal(b, &s); err != nil || s.LeaseID == "" {
			return fmt.Errorf("advise set-up: select answered %s", b)
		}
		w.held = append(w.held, s.LeaseID)
	}
	w.mu.Lock()
	w.first = map[int][]byte{}
	w.mu.Unlock()
	return nil
}

func (w *advise) prepare(i int) *op {
	k := i % advisePool
	d := w.pool[k]
	body := fmt.Sprintf(`{"dag":%s,"options":%s,"search":`+adviseSearch+`}`, d, selectOptions, adviseSeed(k))
	return &op{i: i, path: "/v1/advise", units: 1, keys: []int{k}, dags: [][]byte{d}, body: []byte(body)}
}

type adviseResponse struct {
	MaskedHosts int `json:"masked_hosts"`
	Front       []struct {
		Hosts []int              `json:"hosts"`
		Obj   map[string]float64 `json:"objectives"`
	} `json:"front"`
}

// objectiveAxes are the minimized axes of a front solution.
var objectiveAxes = []string{"turn_around_seconds", "cost_usd", "power_watts", "fragmentation"}

// dominated reports the first pair (i, j) where front[i] dominates front[j].
func dominated(objs []map[string]float64) (int, int, bool) {
	for i, a := range objs {
		for j, b := range objs {
			if i == j {
				continue
			}
			better, worse := false, false
			for _, ax := range objectiveAxes {
				switch {
				case a[ax] < b[ax]:
					better = true
				case a[ax] > b[ax]:
					worse = true
				}
			}
			if better && !worse {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

func (w *advise) run(c *client, o *op) (int, error) {
	b, err := c.send(http.MethodPost, o.path, o.body)
	if err != nil {
		return 1, err
	}
	w.check(o, b)
	return 0, nil
}

// check verifies one advise answer: a non-empty, mutually non-dominated
// front searched under a non-empty exclusion mask, and byte-identical
// answers to a repeated request.
func (w *advise) check(o *op, b []byte) {
	var r adviseResponse
	if err := json.Unmarshal(b, &r); err != nil || len(r.Front) == 0 {
		w.chk.violate("advise: op %d: no front (err %v): %.200s", o.i, err, b)
		return
	}
	if r.MaskedHosts == 0 {
		w.chk.violate("advise: op %d: searched with an empty exclusion mask", o.i)
	}
	objs := make([]map[string]float64, len(r.Front))
	for k, s := range r.Front {
		objs[k] = s.Obj
	}
	if i, j, bad := dominated(objs); bad {
		w.chk.violate("advise: op %d: front solution %d dominates solution %d", o.i, i, j)
	}
	k := o.keys[0]
	w.mu.Lock()
	first, seen := w.first[k]
	if !seen {
		w.first[k] = append([]byte(nil), b...)
	}
	w.mu.Unlock()
	if seen && !bytes.Equal(first, b) {
		w.chk.violate("advise: op %d repeats slot %d but answered different bytes", o.i, k)
	}
}

func (w *advise) finish(c *client) error {
	for _, id := range w.held {
		rb, err := c.send(http.MethodPost, "/v1/release", []byte(fmt.Sprintf(`{"lease_id":%q}`, id)))
		if err != nil {
			return err
		}
		var r releaseResponse
		if err := json.Unmarshal(rb, &r); err != nil || !r.Released {
			w.chk.violate("advise: release of held lease %s answered %s", id, rb)
		}
	}
	return nil
}
