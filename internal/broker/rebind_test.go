package broker

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rsgen/internal/platform"
	"rsgen/internal/spec"
)

func mkHosts(ids ...platform.HostID) []platform.Host {
	hs := make([]platform.Host, len(ids))
	for i, id := range ids {
		hs[i] = platform.Host{ID: id, ClockGHz: 2.0}
	}
	return hs
}

func TestMemStoreSwap(t *testing.T) {
	s := NewMemStore()
	now := time.Unix(1000, 0)
	old, err := s.Acquire(mkHosts(0, 1), time.Minute, now, LeaseMeta{Rung: 0, Backend: "vgdl"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	other, err := s.Acquire(mkHosts(5), time.Minute, now, LeaseMeta{Rung: 0, Backend: "vgdl"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	// Conflict with a foreign lease must fail and leave the old lease held.
	if _, err := s.Swap(old.ID, mkHosts(5, 6), now, LeaseMeta{Rung: 1, Backend: "vgdl"}); err == nil {
		t.Fatal("Swap onto a foreign-held host succeeded")
	}
	if _, held := s.Lookup(old.ID, now); !held {
		t.Fatal("failed Swap released the old lease")
	}
	if _, held := s.Lookup(other.ID, now); !held {
		t.Fatal("failed Swap disturbed an unrelated lease")
	}

	// A valid swap may reuse the old lease's own hosts, preserves the
	// original expiry, and frees the hosts it no longer covers.
	nu, err := s.Swap(old.ID, mkHosts(1, 2, 3), now, LeaseMeta{Rung: 1, Backend: "classad"})
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if nu.ID == old.ID {
		t.Error("swap reused the old lease ID")
	}
	if !nu.Expires.Equal(old.Expires) {
		t.Errorf("swap expiry %v, want the original %v", nu.Expires, old.Expires)
	}
	if nu.Rung != 1 || nu.Backend != "classad" {
		t.Errorf("swap recorded rung %d backend %q", nu.Rung, nu.Backend)
	}
	if _, held := s.Lookup(old.ID, now); held {
		t.Error("old lease still resolves after swap")
	}
	if _, err := s.Acquire(mkHosts(0), time.Minute, now, LeaseMeta{Rung: 0, Backend: "vgdl"}); err != nil {
		t.Errorf("host dropped by the swap is still held: %v", err)
	}
	if _, err := s.Acquire(mkHosts(2), time.Minute, now, LeaseMeta{Rung: 0, Backend: "vgdl"}); err == nil {
		t.Error("host covered by the replacement lease was acquirable")
	}

	// Swapping a gone lease is ErrLeaseGone.
	if _, err := s.Swap(old.ID, mkHosts(7), now, LeaseMeta{Rung: 0, Backend: "vgdl"}); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("swap of a gone lease: err = %v, want ErrLeaseGone", err)
	}
}

func TestRebindSwapsDownTheLadder(t *testing.T) {
	b, p, grid := newTestBroker(t, nil)
	out, err := b.Select(context.Background(), Request{
		Dag:                  testDAG(t),
		Options:              spec.Options{ClockGHz: 3.0},
		AlternativeClocks:    []float64{2.0},
		AlternativeTolerance: 1.0,
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if out.Rung != 0 {
		t.Fatalf("setup: optimal rung should win, got %d", out.Rung)
	}
	origin := out.Lease.ID

	// Declare every cluster fast enough for the optimal rung stalled, the
	// way the reconciler would after downtime events.
	stalled := make(map[platform.HostID]bool)
	for _, h := range p.Hosts {
		if h.ClockGHz >= 3.0 {
			stalled[h.ID] = true
		}
	}
	re, err := b.Rebind(context.Background(), origin, Request{
		Dag:                  testDAG(t),
		Options:              spec.Options{ClockGHz: 3.0},
		AlternativeClocks:    []float64{2.0},
		AlternativeTolerance: 1.0,
	}, stalled)
	if err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	if re.Rung < 1 {
		t.Errorf("rebind stayed on rung %d, want a fallback rung", re.Rung)
	}
	if re.Lease.ID == origin {
		t.Error("rebind did not mint a new lease")
	}
	if !re.Lease.Expires.Equal(out.Lease.Expires) {
		t.Errorf("rebind expiry %v, want the original %v", re.Lease.Expires, out.Lease.Expires)
	}
	for _, id := range re.Lease.Hosts {
		if stalled[id] {
			t.Errorf("rebound lease includes stalled host %d", id)
		}
	}
	if _, held := b.Lease(origin); held {
		t.Error("origin lease still resolves after rebind")
	}
	if _, held := b.Lease(re.Lease.ID); !held {
		t.Error("replacement lease does not resolve")
	}
	if st := b.LeaseStats(); st.ActiveLeases != 1 {
		t.Errorf("lease stats %+v after rebind, want exactly one active lease", st)
	}

	// Rebinding the now-gone origin reports ErrLeaseGone.
	if _, err := b.Rebind(context.Background(), origin, Request{Dag: testDAG(t)}, nil); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("rebind of swapped-away lease: err = %v, want ErrLeaseGone", err)
	}

	// A rebind whose first pick the managers refuse walks the same stages
	// as a Select meeting that refusal: bind, then bound around it.
	req := Request{Dag: testDAG(t), Options: spec.Options{ClockGHz: 2.0}}
	held, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	refuseClusters(grid, held.RC)
	moved, err := b.Rebind(context.Background(), held.Lease.ID, req, nil)
	if err != nil {
		t.Fatalf("Rebind around a refusing manager: %v", err)
	}
	fresh, err := b.Select(context.Background(), req)
	if err != nil {
		t.Fatalf("Select around a refusing manager: %v", err)
	}
	if got, want := strings.Join(stages(moved.Trace), ","), strings.Join(stages(fresh.Trace), ","); got != want || got != "bind,bound" {
		t.Errorf("rebind stages %s, select stages %s, want both bind,bound", got, want)
	}
}

func TestRebindUnsatisfiableKeepsLease(t *testing.T) {
	b, p, _ := newTestBroker(t, nil)
	out, err := b.Select(context.Background(), Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 2.0},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	// Mask the whole platform: no rung can be satisfied, and the original
	// lease must survive untouched for a retry next cycle.
	stalled := make(map[platform.HostID]bool, p.NumHosts())
	for _, h := range p.Hosts {
		stalled[h.ID] = true
	}
	_, err = b.Rebind(context.Background(), out.Lease.ID, Request{
		Dag:     testDAG(t),
		Options: spec.Options{ClockGHz: 2.0},
	}, stalled)
	var unsat *UnsatisfiableError
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want *UnsatisfiableError", err)
	}
	if _, held := b.Lease(out.Lease.ID); !held {
		t.Error("failed rebind lost the original lease")
	}
}

func TestSelectSeedsExclusionProvider(t *testing.T) {
	b, p, _ := newTestBroker(t, nil)
	// The provider masks every fast cluster, so even without bind failures
	// the optimal 3.0 GHz rung cannot select and the ladder falls through.
	b.SetExclusionProvider(func() map[platform.HostID]bool {
		m := make(map[platform.HostID]bool)
		for _, h := range p.Hosts {
			if h.ClockGHz >= 3.0 {
				m[h.ID] = true
			}
		}
		return m
	})
	out, err := b.Select(context.Background(), Request{
		Dag:                  testDAG(t),
		Options:              spec.Options{ClockGHz: 3.0},
		AlternativeClocks:    []float64{2.0},
		AlternativeTolerance: 1.0,
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if out.Rung < 1 {
		t.Errorf("selection won rung %d despite the exclusions, want a fallback", out.Rung)
	}
	for _, id := range out.Lease.Hosts {
		if p.Host(id).ClockGHz >= 3.0 {
			t.Errorf("host %d belongs to an excluded cluster", id)
		}
	}
}
