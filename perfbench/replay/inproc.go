package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rsgen/internal/bind"
	"rsgen/internal/broker"
	"rsgen/internal/broker/durable"
	"rsgen/internal/classad"
	"rsgen/internal/dag"
	"rsgen/internal/knee"
	"rsgen/internal/moga"
	"rsgen/internal/obs"
	"rsgen/internal/platform"
	"rsgen/internal/sched"
	"rsgen/internal/service"
	"rsgen/internal/spec"
	"rsgen/internal/sword"
	"rsgen/internal/vgdl"
	"rsgen/internal/xrand"
	"rsgen/perfbench/replayio"
)

// inproc is an in-process copy of the serving stack. The traced run sends
// the workload's requests through each layer's public functions here, in
// the order rsgend calls them, with a span around every call.
type inproc struct {
	wl  string
	tr  *tracer // nil during the untraced pass
	gen *spec.Generator

	// Spec workloads: the response cache and its policy, mirrored so the
	// replay computes only what rsgend computes.
	cache *specLRU

	// lifecycle and advise.
	plat  *platform.Platform
	brk   *broker.Broker
	store *durable.Store
	rec   *obs.FlightRecorder
	olog  *obs.ObsLog
	ads   []*classad.Ad
	dir   *sword.Directory

	evals     int                    // moga evaluations in traced searches
	schedCost map[string]*[2]float64 // heuristic → modeled, measured seconds
}

// serverCacheEntries is rsgend's default -spec-cache-size.
const serverCacheEntries = 1024

// newInproc loads the model artifact and, for lifecycle and advise, builds
// the broker on a durable store in dir over the inventory platformBody (a
// PUT /v1/platform body) describes.
func newInproc(wl, models, dir string, platformBody []byte) (*inproc, error) {
	f, err := os.Open(models)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gen, _, err := spec.LoadGenerator(f)
	if err != nil {
		return nil, fmt.Errorf("load models: %w", err)
	}
	ip := &inproc{wl: wl, gen: gen, schedCost: map[string]*[2]float64{}}
	if wl != "lifecycle" && wl != "advise" {
		return ip, nil
	}
	var cfg struct {
		Generate service.GeneratePlatform `json:"generate"`
	}
	if err := json.Unmarshal(platformBody, &cfg); err != nil {
		return nil, err
	}
	ip.plat, err = platform.Generate(platform.GenSpec{Clusters: cfg.Generate.Clusters, Year: cfg.Generate.Year}, xrand.New(cfg.Generate.Seed))
	if err != nil {
		return nil, err
	}
	ip.store, err = durable.Open(filepath.Join(dir, "state"), durable.Options{})
	if err != nil {
		return nil, err
	}
	ip.brk, err = broker.New(broker.Config{
		Generator: gen,
		Store:     &spanStore{Store: ip.store, ip: ip},
		Moga:      &moga.Config{Stats: &moga.Stats{}},
	})
	if err != nil {
		return nil, err
	}
	if err := ip.brk.RegisterInventory(ip.plat, bind.DedicatedGrid(ip.plat)); err != nil {
		return nil, err
	}
	if ip.olog, err = obs.OpenObsLog(filepath.Join(dir, "obs"), obs.ObsLogOptions{}); err != nil {
		return nil, err
	}
	// The recorder keeps the ring and accuracy series; the sink appends to
	// the log itself so the append is timed as its own span.
	ip.rec = obs.NewFlightRecorder(0, nil, nil)
	ip.brk.SetObservationSink(func(o obs.Observation) {
		id := ip.tr.begin("obs.record")
		ip.rec.Record(o)
		ip.tr.end(id)
		id = ip.tr.begin("obs.log_append")
		_ = ip.olog.Append(o) // a failed append is logged and swallowed by rsgend too
		ip.tr.end(id)
	})
	ip.ads = classad.MachineAds(ip.plat)
	ip.dir = sword.NewDirectory(ip.plat, xrand.New(1)) // the broker's default SwordSeed
	return ip, nil
}

func (ip *inproc) close() error {
	if ip.store == nil {
		return nil
	}
	err := ip.store.Close()
	if cerr := ip.olog.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanStore times the broker's calls into the durable store.
type spanStore struct {
	broker.Store
	ip *inproc
}

func (s *spanStore) Acquire(hosts []platform.Host, ttl time.Duration, now time.Time, meta broker.LeaseMeta) (*broker.Lease, error) {
	id := s.ip.tr.begin("durable.acquire")
	defer s.ip.tr.end(id)
	return s.Store.Acquire(hosts, ttl, now, meta)
}

func (s *spanStore) Release(id string, now time.Time) bool {
	sid := s.ip.tr.begin("durable.release")
	defer s.ip.tr.end(sid)
	return s.Store.Release(id, now)
}

// specLRU mirrors rsgend's response cache: byte-exact and shape keys in one
// LRU of serverCacheEntries entries.
type specLRU struct {
	ll *list.List
	m  map[string]*list.Element
}

type lruEntry struct {
	key  string
	body []byte
}

func newSpecLRU() *specLRU { return &specLRU{ll: list.New(), m: map[string]*list.Element{}} }

func (c *specLRU) get(k string) ([]byte, bool) {
	if e, ok := c.m[k]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*lruEntry).body, true
	}
	return nil, false
}

func (c *specLRU) put(k string, b []byte) {
	if e, ok := c.m[k]; ok {
		c.ll.MoveToFront(e)
		return
	}
	c.m[k] = c.ll.PushFront(&lruEntry{k, b})
	if c.ll.Len() > serverCacheEntries {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.m, old.Value.(*lruEntry).key)
	}
}

// hold takes one lease per DAG and keeps it for the whole replay, as the
// advise workload's set-up does.
func (ip *inproc) hold(dags []json.RawMessage) error {
	for _, b := range dags {
		d, err := dag.Decode(bytes.NewReader(b))
		if err != nil {
			return err
		}
		if _, err := ip.brk.Select(context.Background(), broker.Request{Dag: d, Options: selectSpecOptions, Backends: []string{"vgdl"}, TTL: time.Hour}); err != nil {
			return fmt.Errorf("hold: %w", err)
		}
	}
	return nil
}

// selectSpecOptions are the spec options of the driver's select and advise
// requests.
var selectSpecOptions = spec.Options{ClockGHz: 2.8, HeterogeneityTolerance: 0.2}

// decode times dag.Decode of one request DAG.
func (ip *inproc) decode(b []byte) (*dag.DAG, error) {
	id := ip.tr.begin("dag.decode")
	defer ip.tr.end(id)
	return dag.Decode(bytes.NewReader(b))
}

// op replays one operation: the pipeline runs under an "op" root span and
// is timed; probes of the layers rsgend calls inside broker.Select and
// moga.Search run afterwards under a "probe" root, untimed.
func (ip *inproc) op(o replayio.Op) (time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	root := ip.tr.startTrace("op")
	var probe func() error
	var err error
	switch ip.wl {
	case "spec-hot", "spec-cold":
		probe, err = ip.specOp(ctx, o)
	case "lifecycle":
		probe, err = ip.lifecycleOp(ctx, o)
	case "advise":
		probe, err = ip.adviseOp(ctx, o)
	}
	ip.tr.end(root)
	took := time.Since(start)
	if err != nil || ip.tr == nil || probe == nil {
		return took, err
	}
	p := ip.tr.startTrace("probe")
	err = probe()
	ip.tr.end(p)
	return took, err
}

func (ip *inproc) specOp(ctx context.Context, o replayio.Op) (func() error, error) {
	cold := ip.wl == "spec-cold"
	seen := map[string]bool{}
	var last *dag.DAG
	var lastSpec *spec.Specification
	for _, body := range o.Dags {
		// rsgend groups byte-identical batch members before decoding.
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		d, err := ip.decode(body)
		if err != nil {
			return nil, err
		}
		id := ip.tr.begin("dag.fingerprint")
		exact := fmt.Sprintf("%016x", d.Fingerprint())
		ip.tr.end(id)
		if _, ok := ip.cache.get(exact); ok {
			continue
		}
		key, nd := exact, d
		if !cold {
			id = ip.tr.begin("dag.normalize")
			nd = d.Normalize()
			ip.tr.end(id)
			id = ip.tr.begin("dag.fingerprint")
			key = fmt.Sprintf("shape|%016x", nd.Fingerprint())
			ip.tr.end(id)
			if b, ok := ip.cache.get(key); ok {
				ip.cache.put(exact, b)
				continue
			}
		}
		opts := spec.Options{}
		if cold {
			opts.ClockGHz = 2.8
		}
		id = ip.tr.begin("spec.generate")
		sp, err := ip.gen.Generate(nd, opts)
		ip.tr.end(id)
		if err != nil {
			return nil, err
		}
		resp := service.SpecResponse{Heuristic: sp.Heuristic, RCSize: sp.RCSize, VgDL: sp.VgDL, ClassAd: sp.ClassAd, Sword: sp.SwordXML}
		if cold {
			alts, err := ip.alternatives(ctx, d, sp)
			if err != nil {
				return nil, err
			}
			for _, a := range alts {
				resp.Alternatives = append(resp.Alternatives, service.AlternativeResponse{ClockGHz: a.ClockGHz, RCSize: a.RCSize, VgDL: a.Spec.VgDL})
			}
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		ip.cache.put(key, b)
		if key != exact {
			ip.cache.put(exact, b)
		}
		last, lastSpec = d, sp
	}
	if last == nil {
		return nil, nil
	}
	return func() error {
		ip.probeModels(last)
		if cold {
			return ip.probeSched(last, platform.HomogeneousRC(lastSpec.RCSize, lastSpec.MaxClockGHz, platform.ReferenceBandwidthMbps))
		}
		return nil
	}, nil
}

func (ip *inproc) lifecycleOp(ctx context.Context, o replayio.Op) (func() error, error) {
	d, err := ip.decode(o.Dags[0])
	if err != nil {
		return nil, err
	}
	id := ip.tr.begin("broker.select")
	out, err := ip.brk.Select(ctx, broker.Request{Dag: d, Options: selectSpecOptions, Backends: o.Backends, TTL: 300 * time.Second})
	ip.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = ip.tr.begin("broker.release")
	ok := ip.brk.ReleaseObserved(ctx, out.Lease.ID, out.Lease.PredictedTurnAround*o.Factor)
	ip.tr.end(id)
	if !ok {
		return nil, fmt.Errorf("replay: release of %s failed", out.Lease.ID)
	}
	return func() error {
		ip.probeModels(d)
		if err := ip.probeMatchers(out.Spec); err != nil {
			return err
		}
		if err := ip.probeSched(d, out.RC); err != nil {
			return err
		}
		// The workloads BENCHMARK.json lists run neither spec.Alternatives
		// nor moga, so lifecycle's probes time both on its own specs.
		if _, err := ip.alternatives(ctx, d, out.Spec); err != nil {
			return err
		}
		_, err := ip.search(ctx, d, out.Spec, uint64(o.I))
		return err
	}, nil
}

func (ip *inproc) adviseOp(ctx context.Context, o replayio.Op) (func() error, error) {
	d, err := ip.decode(o.Dags[0])
	if err != nil {
		return nil, err
	}
	id := ip.tr.begin("spec.generate")
	sp, err := ip.gen.Generate(d, selectSpecOptions)
	ip.tr.end(id)
	if err != nil {
		return nil, err
	}
	res, err := ip.search(ctx, d, sp, o.SearchSeed)
	if err != nil {
		return nil, err
	}
	if _, err := json.Marshal(res.Front); err != nil {
		return nil, err
	}
	hosts := make([]platform.Host, len(res.Front[0].Hosts))
	for k, h := range res.Front[0].Hosts {
		hosts[k] = ip.plat.Hosts[h]
	}
	return func() error {
		ip.probeModels(d)
		return ip.probeSched(d, platform.SubsetRC(ip.plat, hosts))
	}, nil
}

// alternatives times spec.Alternatives with spec-cold's clock classes
// and tolerance.
func (ip *inproc) alternatives(ctx context.Context, d *dag.DAG, sp *spec.Specification) ([]spec.Alternative, error) {
	id := ip.tr.begin("spec.alternatives")
	defer ip.tr.end(id)
	return ip.gen.Alternatives(d, sp, []float64{2.4, 2.0}, knee.SweepConfig{Ctx: ctx}, 0.1)
}

// search times one moga search with the advise workload's budget against
// the live exclusion mask.
func (ip *inproc) search(ctx context.Context, d *dag.DAG, sp *spec.Specification, seed uint64) (*moga.Result, error) {
	cfg := moga.Config{PopSize: 16, Generations: 16, Seed: seed}
	id := ip.tr.begin("moga.search")
	res, err := moga.Search(ctx, moga.Problem{Platform: ip.plat, Spec: sp, Dag: d, Excluded: ip.brk.SelectionMask()}, cfg)
	ip.tr.end(id)
	if err == nil && ip.tr != nil {
		ip.evals += res.Evaluations
	}
	return res, err
}

// probeModels times the two model predictions spec.Generate makes.
func (ip *inproc) probeModels(d *dag.DAG) {
	c := d.Characteristics()
	id := ip.tr.begin("knee.predict_size")
	ip.gen.Size.Default().PredictSize(c)
	ip.tr.end(id)
	if ip.gen.Heur != nil {
		id = ip.tr.begin("heurpred.predict")
		_, _ = ip.gen.Heur.Predict(c) // an error means "use MCP" to Generate too
		ip.tr.end(id)
	}
}

// probeMatchers resolves the winning spec with each matcher, as the
// broker's selectors do, against the live exclusion mask.
func (ip *inproc) probeMatchers(sp *spec.Specification) error {
	mask := ip.brk.SelectionMask()
	vs, err := vgdl.Parse(sp.VgDL)
	if err != nil {
		return err
	}
	f := vgdl.NewFinder(ip.plat)
	f.ExcludedHosts = mask
	// A matcher may fail a spec another matcher bound; only the time
	// matters here, so the probes' errors are dropped.
	id := ip.tr.begin("vgdl.find")
	_, _ = f.Find(vs)
	ip.tr.end(id)
	ad, err := classad.Parse(sp.ClassAd)
	if err != nil {
		return err
	}
	id = ip.tr.begin("classad.match")
	classad.MatchBestIndices(ad, ip.ads, sp.RCSize, func(i int) bool { return mask[platform.HostID(i)] })
	ip.tr.end(id)
	req, err := sword.Decode(sp.SwordXML)
	if err != nil {
		return err
	}
	id = ip.tr.begin("sword.select")
	_, _ = ip.dir.SelectExcluding(req, mask)
	ip.tr.end(id)
	return nil
}

// probeSched schedules d on rc with every heuristic, recording the paper's
// modeled scheduling time next to the measured one.
func (ip *inproc) probeSched(d *dag.DAG, rc *platform.ResourceCollection) error {
	for _, h := range sched.All() {
		id := ip.tr.begin("sched.schedule." + h.Name())
		t0 := time.Now()
		s, err := h.Schedule(d, rc)
		took := time.Since(t0)
		ip.tr.end(id)
		if err != nil {
			return fmt.Errorf("probe %s: %w", h.Name(), err)
		}
		c := ip.schedCost[h.Name()]
		if c == nil {
			c = &[2]float64{}
			ip.schedCost[h.Name()] = c
		}
		c[0] += sched.SchedulingTime(s.Ops, 1)
		c[1] += took.Seconds()
	}
	return nil
}
