// Command perfbench is rsgen's end-to-end benchmark. It trains a
// quick-scale model artifact once, runs rsgend on it, drives one workload
// over loopback HTTP, checks every answer, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of
// standard output. Run it through perfbench/run.sh, which builds it; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// Training is a one-off per checkout: a quick-scale artifact with a fixed
// seed, cached under .bench_build and never counted in set-up time.
const (
	trainScale = "quick"
	trainSeed  = 1
)

// Phase lengths. The closed and open loops share --seconds; the warm-up
// lets caches fill and lazy set-up finish before anything is timed.
const (
	setups       = 15 // set-up samples per run; the median is reported
	warmup       = time.Second
	closedShare  = 0.4
	rounds       = 12
	readyTimeout = 60 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload: spec-hot | spec-cold | lifecycle | advise")
	seed := fs.Uint64("seed", 1, "corpus seed")
	seconds := fs.Int("seconds", 50, "measured seconds (closed loop + open loop)")
	trace := fs.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		return compareMain(fs.Args()[1:], stdout)
	}
	wl, err := lookupWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	res, err := bench(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// buildDir holds everything the benchmark builds and writes, relative to
// the checkout root, the working directory.
const buildDir = ".bench_build"

// artifacts locates the binaries run.sh built and trains the model
// artifact on first use.
func artifacts() (rsgend, models string, err error) {
	rsgend = filepath.Join(buildDir, "bin", "rsgend")
	if _, err := os.Stat(rsgend); err != nil {
		return "", "", fmt.Errorf("rsgend binary missing (build with perfbench/run.sh): %w", err)
	}
	models = filepath.Join(buildDir, fmt.Sprintf("models-%s-seed%d.json", trainScale, trainSeed))
	if _, err := os.Stat(models); err == nil {
		return rsgend, models, nil
	}
	tmp := models + ".tmp"
	cmd := exec.Command(rsgend, "-train", "-scale", trainScale, "-seed", fmt.Sprint(trainSeed), "-models", tmp)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("train models: %w", err)
	}
	return rsgend, models, os.Rename(tmp, models)
}

// bench runs one workload end to end.
func bench(wl wlSpec, seed uint64, seconds time.Duration, traced bool, stdout io.Writer) (*result, error) {
	rsgend, models, err := artifacts()
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(buildDir, "run", wl.name)
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	chk := &checker{}
	w, err := wl.make(seed, chk)
	if err != nil {
		return nil, fmt.Errorf("build corpus: %w", err)
	}

	// Set-up samples run on fresh state through a separate workload
	// instance, so they leave the measured run's bookkeeping alone. Some
	// run before the measurement and one after each round, so the median
	// covers the whole run rather than its first seconds.
	sampler, err := wl.make(seed, chk)
	if err != nil {
		return nil, err
	}
	var setupTimes []float64
	sample := func() error {
		s, sc, took, err := setUp(rsgend, models, filepath.Join(runDir, fmt.Sprintf("setup-%d", len(setupTimes))), wl, sampler)
		if err != nil {
			return err
		}
		sc.close()
		setupTimes = append(setupTimes, took.Seconds())
		if err := s.stop(); err != nil {
			return fmt.Errorf("stop rsgend after set-up: %w", err)
		}
		return nil
	}
	for k := 0; k < setups-rounds-1; k++ {
		if err := sample(); err != nil {
			return nil, err
		}
	}
	srv, c, took, err := setUp(rsgend, models, filepath.Join(runDir, "measured"), wl, w)
	if err != nil {
		return nil, err
	}
	setupTimes = append(setupTimes, took.Seconds())
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	defer c.close()

	var next atomic.Int64
	next.Store(1)
	mStart, err := c.scrape()
	if err != nil {
		return nil, err
	}
	warm := closedLoop(w, c, &next, warmup)

	// Rounds alternate a closed-loop and an open-loop window; per-round
	// medians keep a burst of outside load in one round from moving the
	// run's figures.
	closedDur := time.Duration(closedShare * float64(seconds) / rounds)
	openDur := time.Duration((1 - closedShare) * float64(seconds) / rounds)
	var (
		tallies              []*tally
		delta                = metrics{}
		throughput, cpuPerOp []float64
		p50s, slo, lag       []float64
		roundLat             [][]float64
		roundScheduled       []int
		closedOps            int
		scheduled, dropped   int
	)
	for r := 0; r < rounds; r++ {
		mA, err := c.scrape()
		if err != nil {
			return nil, err
		}
		cpuA, err := srv.cpuTime()
		if err != nil {
			return nil, err
		}
		closed := closedLoop(w, c, &next, closedDur)
		cpuB, err := srv.cpuTime()
		if err != nil {
			return nil, err
		}
		mB, err := c.scrape()
		if err != nil {
			return nil, err
		}
		open := openLoop(w, c, &next, wl.rate, openDur, wl.limit)
		tallies = append(tallies, &closed.tally, &open.tally)
		if closed.completed() == 0 {
			return nil, errors.New("a closed-loop round completed no operation")
		}
		for k, v := range mB.sub(mA) {
			delta[k] += v
		}
		closedOps += closed.completed()
		throughput = append(throughput, float64(closed.completed())/closed.elapsed.Seconds())
		cpuPerOp = append(cpuPerOp, float64(cpuB-cpuA)/1e6/float64(closed.completed()))
		ol := open.latencies()
		if len(ol) == 0 {
			return nil, errors.New("an open-loop round completed no operation")
		}
		p50s = append(p50s, percentile(ol, 500))
		roundLat = append(roundLat, ol)
		roundScheduled = append(roundScheduled, open.scheduled)
		slo = append(slo, float64(open.sloMet)/float64(open.scheduled))
		lag = append(lag, open.lag...)
		scheduled += open.scheduled
		dropped += open.dropped
		if err := sample(); err != nil {
			return nil, err
		}
	}

	var (
		layers    map[string]metric
		selfPerOp map[string]float64
	)
	if traced {
		if layers, selfPerOp, err = tracedRun(wl, w, c, &next, models, runDir, stdout); err != nil {
			return nil, err
		}
	}
	if err := w.finish(c); err != nil {
		return nil, err
	}
	if err := chk.err(); err != nil {
		return nil, err
	}
	mEnd, err := c.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	c.close()
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, fmt.Errorf("rsgend exited uncleanly: %w", err)
	}

	attempted, failed := warm.attempted, warm.failed
	var firstErr error = warm.firstErr
	for _, t := range tallies {
		attempted += t.attempted
		failed += t.failed
		if firstErr == nil {
			firstErr = t.firstErr
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", firstErr)
	}
	tail, tails, groupSize := groupTail(roundLat, roundScheduled)
	fmt.Fprintf(stdout, "workload %s seed %d: %d set-ups; %d rounds; closed loop %d ops; open loop %d ops at %.0f/s, tail %s in %d groups of %d samples, %d dropped\n",
		wl.name, seed, len(setupTimes), rounds, closedOps, scheduled, wl.rate, percentileName(tail), tailGroups, groupSize, dropped)

	fmt.Fprintf(stdout, "per round: throughput %s ops/s; server cpu %s ms/op; p50 %s ms; slo %s; per group: tail %s ms\n",
		fmtList(throughput), fmtList(cpuPerOp), fmtList(p50s), fmtList(slo), fmtList(tails))

	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if traced {
		ops := float64(closedOps)
		for k, v := range serverLayers(delta, mEnd.sub(mStart), ops) {
			if _, probed := layers[k]; probed && v.Value == 0 {
				continue // rsgend never ran the layer; keep the replay's figure
			}
			layers[k] = v
		}
		sort.Float64s(lag)
		layers["loadgen.lag_p99_ms"] = metric{percentile(lag, 990), "ms"}
		layers["fail_ratio"] = metric{ratio(float64(failed), float64(attempted)), "ratio"}
		printStages(stdout, delta, ops, selfPerOp)
		for _, m := range perLayerMetrics {
			v, ok := layers[m.name]
			if !ok {
				v = metric{0, m.unit} // no span or counter of this layer in this workload
			}
			res.Metrics[m.name] = v
		}
		return res, nil
	}
	res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
	res.Metrics["throughput_ops"] = metric{median(throughput), "ops/s"}
	res.Metrics["latency_p50_ms"] = metric{median(p50s), "ms"}
	res.Metrics["latency_tail_ms"] = metric{median(tails), "ms"}
	res.Metrics["slo_attainment"] = metric{median(slo), "ratio"}
	res.Metrics["server_cpu_ms_per_op"] = metric{median(cpuPerOp), "ms"}
	res.Metrics["rss_peak_mb"] = metric{rss, "MiB"}
	return res, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// setUp execs rsgend with fresh state in dir and brings it to the
// workload's starting state, returning once it has answered the workload's
// first request and how long that took. The server is left running on
// every path that returns it; on error it has been killed.
func setUp(rsgend, models, dir string, wl wlSpec, w workload) (*server, *client, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	so := serverOpts{}
	if wl.durable {
		so = serverOpts{stateDir: filepath.Join(dir, "state"), obsDir: filepath.Join(dir, "obs")}
	}
	t0 := time.Now()
	srv, err := startServer(rsgend, models, dir, so)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(srv.base)
	err = c.ready(srv, readyTimeout)
	if err == nil {
		if err = w.setup(c); err != nil {
			err = fmt.Errorf("set-up: %w", err)
		}
	}
	if err == nil {
		if failed, ferr := w.run(c, w.prepare(0)); failed > 0 {
			err = fmt.Errorf("set-up: first request failed: %v", ferr)
		}
	}
	if err != nil {
		c.close()
		srv.kill()
		return nil, nil, 0, err
	}
	return srv, c, time.Since(t0), nil
}
