package broker

import (
	"sort"
	"strconv"
	"sync"

	"rsgen/internal/obs"
)

// Stage labels where in the select→bind→lease lifecycle a rung attempt
// ended.
const (
	StageSelect = "select" // the backend could not satisfy the spec
	StageLease  = "lease"  // a concurrent session won the acquisition race
	StageBind   = "bind"   // the managers refused or stalled past the bound
	StageBound  = "bound"  // success: hosts leased and bound
)

// Metrics aggregates the broker's counters, registered on the broker's own
// obs.Registry so the serving layer mounts them into its scrape without
// owning them. Series names, order and rendering are byte-compatible with
// the hand-rolled exposition this replaced. All series are monotone
// counters except the lease-occupancy gauges, which are read from the lease
// table at exposition time.
type Metrics struct {
	reg *obs.Registry

	rungAttempts *obs.CounterVec

	mu           sync.Mutex
	fallbackHist map[int]uint64 // successful selections by fallback depth

	selections   *obs.Counter // Select calls admitted
	unsatisfied  *obs.Counter // Select calls that exhausted the ladder
	bindFailures *obs.Counter
	releases     *obs.Counter
	inflight     *obs.Gauge
}

// newBrokerMetrics registers the broker families in the legacy exposition
// order. leases is read at scrape time (it sweeps expired leases, which is
// what keeps the occupancy gauges fresh on idle brokers).
func newBrokerMetrics(leases func() LeaseStats) *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{reg: reg, fallbackHist: make(map[int]uint64)}
	m.rungAttempts = reg.CounterVec("rsgend_broker_rung_attempts_total", "backend", "stage")
	// Depth labels sort numerically ({depth="2"} before {depth="10"}), which
	// a lexicographic label-set sort cannot reproduce — custom collector.
	reg.Func("rsgend_broker_fallback_depth_total", "counter", func() []obs.Sample {
		m.mu.Lock()
		depths := make([]int, 0, len(m.fallbackHist))
		for d := range m.fallbackHist {
			depths = append(depths, d)
		}
		hist := make(map[int]uint64, len(m.fallbackHist))
		for d, v := range m.fallbackHist {
			hist[d] = v
		}
		m.mu.Unlock()
		sort.Ints(depths)
		out := make([]obs.Sample, len(depths))
		for i, d := range depths {
			out[i] = obs.Sample{
				Labels: `{depth="` + strconv.Itoa(d) + `"}`,
				Value:  strconv.FormatUint(hist[d], 10),
			}
		}
		return out
	})
	m.selections = reg.Counter("rsgend_broker_selections_total")
	m.unsatisfied = reg.Counter("rsgend_broker_unsatisfied_total")
	m.bindFailures = reg.Counter("rsgend_broker_bind_failures_total")
	m.releases = reg.Counter("rsgend_broker_releases_total")
	m.inflight = reg.Gauge("rsgend_broker_inflight_selections")
	reg.IntGaugeFunc("rsgend_broker_active_leases", func() int64 { return int64(leases().ActiveLeases) })
	reg.IntGaugeFunc("rsgend_broker_leased_hosts", func() int64 { return int64(leases().LeasedHosts) })
	reg.CounterFunc("rsgend_broker_leases_expired_total", func() uint64 { return leases().ExpiredTotal })
	return m
}

func (m *Metrics) rungAttempt(backend, stage string) {
	m.rungAttempts.With(backend, stage).Inc()
}

func (m *Metrics) fallbackDepth(depth int) {
	m.mu.Lock()
	m.fallbackHist[depth]++
	m.mu.Unlock()
}
