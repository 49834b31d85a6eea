package broker

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsgen/internal/bind"
	"rsgen/internal/dag"
	"rsgen/internal/heurpred"
	"rsgen/internal/knee"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
	"rsgen/internal/xrand"
)

// testGenerator trains one tiny model pair for the whole test binary
// (training is deterministic, so sharing it cannot couple tests).
var testGenerator = sync.OnceValues(func() (*spec.Generator, error) {
	size, err := knee.Train(knee.TrainConfig{
		Sizes:      []int{30, 80},
		CCRs:       []float64{0.1, 0.5},
		Alphas:     []float64{0.4, 0.7},
		Betas:      []float64{0.2, 0.8},
		Reps:       1,
		Density:    0.5,
		MeanCost:   40,
		Thresholds: knee.Thresholds,
		Seed:       7,
	})
	if err != nil {
		return nil, err
	}
	heur, err := heurpred.Train(heurpred.TrainConfig{
		Sizes:  []int{30, 80},
		CCRs:   []float64{0.1},
		Alphas: []float64{0.5},
		Betas:  []float64{0.5},
		Reps:   1,
		Seed:   8,
	})
	if err != nil {
		return nil, err
	}
	return &spec.Generator{Size: size, Heur: heur}, nil
})

// testDAG is the small diamond workflow every broker test selects for.
const testDAGJSON = `{"tasks":[{"id":0,"cost":10},{"id":1,"cost":12},{"id":2,"cost":8},{"id":3,"cost":9}],
"edges":[{"from":0,"to":1,"cost":2},{"from":0,"to":2,"cost":2},{"from":1,"to":3,"cost":1},{"from":2,"to":3,"cost":1}]}`

func testDAG(t *testing.T) *dag.DAG {
	t.Helper()
	d, err := dag.Decode(strings.NewReader(testDAGJSON))
	if err != nil {
		t.Fatalf("decoding test dag: %v", err)
	}
	return d
}

// newTestBroker builds a broker over a generated 2006 platform with
// dedicated managers (clock classes 1.5–3.2 GHz, so a 2.0 GHz request always
// has candidates and a 5.0 GHz request never does).
func newTestBroker(t *testing.T, mutate func(*Config)) (*Broker, *platform.Platform, *bind.Grid) {
	t.Helper()
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	cfg := Config{Generator: gen}
	if mutate != nil {
		mutate(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := platform.MustGenerate(platform.GenSpec{Clusters: 16, Year: 2006}, xrand.New(3))
	grid := bind.DedicatedGrid(p)
	if err := b.RegisterInventory(p, grid); err != nil {
		t.Fatalf("RegisterInventory: %v", err)
	}
	return b, p, grid
}

func TestSelectOptimalRung(t *testing.T) {
	b, _, _ := newTestBroker(t, nil)
	out, err := b.Select(context.Background(), Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 2.0},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if out.Rung != 0 || out.Backend != "vgdl" {
		t.Errorf("rung %d via %s, want 0 via vgdl", out.Rung, out.Backend)
	}
	if out.Lease == nil || len(out.Lease.Hosts) != out.Spec.RCSize {
		t.Fatalf("lease %+v does not cover the %d-host spec", out.Lease, out.Spec.RCSize)
	}
	if got := out.Trace[len(out.Trace)-1]; got.Stage != StageBound || got.Err != "" {
		t.Errorf("final trace entry %+v, want stage bound", got)
	}
	if out.AvailableAtSeconds != 0 {
		t.Errorf("dedicated managers should grant immediately, got %v s", out.AvailableAtSeconds)
	}
	st := b.LeaseStats()
	if st.ActiveLeases != 1 || st.LeasedHosts != out.Spec.RCSize {
		t.Errorf("lease stats %+v after one selection", st)
	}
	if !b.Release(out.Lease.ID) {
		t.Fatal("releasing a live lease failed")
	}
	if st := b.LeaseStats(); st.ActiveLeases != 0 || st.LeasedHosts != 0 {
		t.Errorf("lease stats %+v after release", st)
	}
	if b.Release(out.Lease.ID) {
		t.Error("double release succeeded")
	}
}

func TestSelectFallsBackOnSelectionFailure(t *testing.T) {
	b, _, _ := newTestBroker(t, nil)
	// 5.0 GHz exceeds every 2006 clock class, so the optimal rung dies at
	// selection; the 3.0 GHz alternative (1.67× slower, within the 2×
	// tolerance) must win.
	out, err := b.Select(context.Background(), Request{
		Dag:                  testDAG(t),
		Options:              spec.Options{ClockGHz: 5.0},
		AlternativeClocks:    []float64{3.0},
		AlternativeTolerance: 1.0,
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if out.Rung != 1 {
		t.Fatalf("won at rung %d, want the first alternative", out.Rung)
	}
	if out.Spec.MaxClockGHz != 3.0 {
		t.Errorf("winning spec clock %v, want 3.0", out.Spec.MaxClockGHz)
	}
	var sawSelectFailure bool
	for _, a := range out.Trace {
		if a.Rung == 0 && a.Stage == StageSelect && a.Err != "" {
			sawSelectFailure = true
		}
	}
	if !sawSelectFailure {
		t.Errorf("trace %+v records no rung-0 selection failure", out.Trace)
	}
}

func TestSelectRoutesAroundStalledClusters(t *testing.T) {
	var b *Broker
	var p *platform.Platform
	var grid *bind.Grid
	b, p, grid = newTestBroker(t, nil)
	// Every cluster fast enough for the optimal 3.0 GHz rung gets a
	// reservation manager whose next slot is far beyond the wait bound:
	// the rung selects, leases, and then fails at bind. The bind failure
	// must mask those clusters' hosts, so the 2.4 GHz alternative lands on
	// slower dedicated clusters instead of re-binding the stalled ones.
	for _, c := range p.Clusters {
		if c.ClockGHz >= 3.0 {
			grid.SetManager(bind.Manager{Cluster: c.ID, Discipline: bind.Reservation, NextSlot: 1e6})
		}
	}
	out, err := b.Select(context.Background(), Request{
		Dag:                  testDAG(t),
		Options:              spec.Options{ClockGHz: 3.0},
		AlternativeClocks:    []float64{2.4},
		AlternativeTolerance: 1.0,
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if out.Rung != 1 {
		t.Fatalf("won at rung %d, want the first alternative", out.Rung)
	}
	var sawBindFailure bool
	for _, a := range out.Trace {
		if a.Stage == StageBind && a.Err != "" {
			sawBindFailure = true
		}
	}
	if !sawBindFailure {
		t.Errorf("trace %+v records no bind failure", out.Trace)
	}
	for _, id := range out.Lease.Hosts {
		if h := p.Host(id); h.ClockGHz >= 3.0 {
			t.Errorf("host %d (%.1f GHz) belongs to a stalled cluster", id, h.ClockGHz)
		}
	}
	if b.Metrics().bindFailures.Load() == 0 {
		t.Error("bind failure counter never moved")
	}
}

// countingStore counts the lease-table writes a selection makes.
type countingStore struct {
	Store
	acquires, releases atomic.Int32
}

func (s *countingStore) Acquire(hosts []platform.Host, ttl time.Duration, now time.Time, meta LeaseMeta) (*Lease, error) {
	s.acquires.Add(1)
	return s.Store.Acquire(hosts, ttl, now, meta)
}

func (s *countingStore) Release(id string, now time.Time) bool {
	s.releases.Add(1)
	return s.Store.Release(id, now)
}

// refuseClusters gives every cluster of rc a reservation manager whose next
// slot lies far beyond the bind-wait bound, so binding rc fails.
func refuseClusters(grid *bind.Grid, rc *platform.ResourceCollection) {
	for _, h := range rc.Hosts {
		grid.SetManager(bind.Manager{Cluster: h.Cluster, Discipline: bind.Reservation, NextSlot: 1e6})
	}
}

func stages(trace []RungAttempt) []string {
	out := make([]string, len(trace))
	for i, a := range trace {
		out[i] = a.Stage
	}
	return out
}

// TestSelectBindsBeforeLeasing pins the attempt order select → bind →
// lease: a first pick the managers refuse never reaches the lease table, so
// the re-selection around the stalled clusters acquires the only lease.
func TestSelectBindsBeforeLeasing(t *testing.T) {
	req := Request{Dag: testDAG(t), Options: spec.Options{ClockGHz: 2.0}}
	// An unobstructed broker over the same platform shows the first pick.
	probe, _, _ := newTestBroker(t, nil)
	first, err := probe.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("probe Select: %v", err)
	}

	store := &countingStore{Store: NewMemStore()}
	b, p, grid := newTestBroker(t, func(c *Config) { c.Store = store })
	refuseClusters(grid, first.RC)
	out, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if got, want := strings.Join(stages(out.Trace), ","), "bind,bound"; got != want {
		t.Errorf("trace stages %s, want %s", got, want)
	}
	if n := store.acquires.Load(); n != 1 {
		t.Errorf("%d Acquire calls, want 1: a refused collection must not be leased", n)
	}
	if n := store.releases.Load(); n != 0 {
		t.Errorf("%d Release calls, want 0", n)
	}
	if out.Lease.ID != "lease-00000001" {
		t.Errorf("lease ID %s, want lease-00000001: no ID may burn on a refused bind", out.Lease.ID)
	}
	refused := make(map[int]bool)
	for _, h := range first.RC.Hosts {
		refused[h.Cluster] = true
	}
	for _, id := range out.Lease.Hosts {
		if refused[p.Host(id).Cluster] {
			t.Errorf("host %d belongs to a refusing cluster", id)
		}
	}
}

func TestSelectUnsatisfiable(t *testing.T) {
	b, _, _ := newTestBroker(t, nil)
	_, err := b.Select(context.Background(), Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 5.0},
	})
	var unsat *UnsatisfiableError
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want *UnsatisfiableError", err)
	}
	if len(unsat.Trace) == 0 {
		t.Fatal("unsatisfiable error carries no trace")
	}
	for _, a := range unsat.Trace {
		if a.Stage == StageBound {
			t.Errorf("unsatisfiable trace contains a bound attempt: %+v", a)
		}
	}
	if !strings.Contains(err.Error(), "rung 0") {
		t.Errorf("error %q does not describe the failed rung", err)
	}
	if b.Metrics().unsatisfied.Load() != 1 {
		t.Errorf("unsatisfied counter = %d, want 1", b.Metrics().unsatisfied.Load())
	}
}

func TestSelectErrors(t *testing.T) {
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	b, err := New(Config{Generator: gen})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := b.Select(context.Background(), Request{Dag: testDAG(t)}); !errors.Is(err, ErrNoInventory) {
		t.Errorf("pre-registration Select err = %v, want ErrNoInventory", err)
	}
	p := platform.MustGenerate(platform.GenSpec{Clusters: 4, Year: 2006}, xrand.New(3))
	if err := b.RegisterInventory(p, bind.DedicatedGrid(p)); err != nil {
		t.Fatalf("RegisterInventory: %v", err)
	}
	if _, err := b.Select(context.Background(), Request{}); err == nil {
		t.Error("nil dag accepted")
	}
	if _, err := b.Select(context.Background(), Request{Dag: testDAG(t), Backends: []string{"nope"}}); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend err = %v", err)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("generator-less broker constructed")
	}
	if err := b.RegisterInventory(nil, nil); err == nil {
		t.Error("nil inventory registered")
	}
	other := platform.MustGenerate(platform.GenSpec{Clusters: 6, Year: 2006}, xrand.New(4))
	if err := b.RegisterInventory(p, bind.DedicatedGrid(other)); err == nil {
		t.Error("mismatched grid registered")
	}
}

func TestLeaseExpiryReclaimsHosts(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}
	b, _, _ := newTestBroker(t, func(c *Config) { c.Now = clock })
	out, err := b.Select(context.Background(), Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 2.0},
		TTL:     time.Minute,
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if st := b.LeaseStats(); st.ActiveLeases != 1 {
		t.Fatalf("lease stats %+v before expiry", st)
	}
	advance(2 * time.Minute)
	st := b.LeaseStats()
	if st.ActiveLeases != 0 || st.LeasedHosts != 0 || st.ExpiredTotal != 1 {
		t.Fatalf("lease stats %+v after expiry", st)
	}
	if b.Release(out.Lease.ID) {
		t.Error("released an expired lease")
	}
	// The reclaimed hosts are selectable again.
	if _, err := b.Select(context.Background(), Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 2.0},
	}); err != nil {
		t.Fatalf("post-expiry Select: %v", err)
	}
}

func TestSweeperReclaimsInBackground(t *testing.T) {
	b, _, _ := newTestBroker(t, nil)
	if _, err := b.Select(context.Background(), Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 2.0},
		TTL:     time.Millisecond,
	}); err != nil {
		t.Fatalf("Select: %v", err)
	}
	stop := b.StartSweeper(5 * time.Millisecond)
	defer stop()
	// Observe the table directly (every public accessor sweeps inline, which
	// would mask whether the background goroutine did the work).
	mem := b.store.(*MemStore)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mem.mu.Lock()
		n := len(mem.byID)
		mem.mu.Unlock()
		if n == 0 {
			stop()
			stop() // idempotent
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("sweeper never reclaimed the expired lease")
}

func TestDrainRejectsNewSelections(t *testing.T) {
	b, _, _ := newTestBroker(t, nil)
	b.BeginDrain()
	if _, err := b.Select(context.Background(), Request{Dag: testDAG(t)}); !errors.Is(err, ErrDraining) {
		t.Errorf("Select while draining err = %v, want ErrDraining", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Errorf("Drain with no in-flight work: %v", err)
	}
}

// TestStartSweeperIdempotent asserts a second StartSweeper while one is
// running spawns nothing and hands back the running sweeper's stop func,
// and that stopping makes room for a fresh sweeper.
func TestStartSweeperIdempotent(t *testing.T) {
	b, _, _ := newTestBroker(t, nil)
	before := runtime.NumGoroutine()
	stop1 := b.StartSweeper(time.Hour)
	stop2 := b.StartSweeper(time.Hour)
	stop3 := b.StartSweeper(time.Hour)

	// Exactly one sweeper goroutine may exist, no matter how many calls.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("%d goroutines after three StartSweeper calls, started with %d: leaked sweepers", n, before)
	}
	stop2() // any of the returned funcs stops the one sweeper
	stop1()
	stop3()
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after stop, started with %d: sweeper leaked", n, before)
	}
	// After a stop the broker can start a fresh sweeper.
	stop4 := b.StartSweeper(time.Hour)
	defer stop4()
	if &stop4 == &stop1 {
		t.Error("fresh sweeper returned the dead sweeper's stop func")
	}
}

// TestGenerationBumpsPerRegistration asserts the inventory epoch starts at
// zero, bumps on every registration, and drops in-flight leases with it.
func TestGenerationBumpsPerRegistration(t *testing.T) {
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	b, err := New(Config{Generator: gen})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if g := b.Generation(); g != 0 {
		t.Errorf("generation %d before any registration, want 0", g)
	}
	p := platform.MustGenerate(platform.GenSpec{Clusters: 8, Year: 2006}, xrand.New(3))
	if err := b.RegisterInventory(p, bind.DedicatedGrid(p)); err != nil {
		t.Fatalf("RegisterInventory: %v", err)
	}
	if g := b.Generation(); g != 1 {
		t.Errorf("generation %d after first registration, want 1", g)
	}
	out, err := b.Select(context.Background(), Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 2.0},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if err := b.RegisterInventory(p, bind.DedicatedGrid(p)); err != nil {
		t.Fatalf("re-RegisterInventory: %v", err)
	}
	if g := b.Generation(); g != 2 {
		t.Errorf("generation %d after second registration, want 2", g)
	}
	if b.Release(out.Lease.ID) {
		t.Error("lease survived re-registration; registration must clear the table")
	}
}
