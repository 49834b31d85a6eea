package broker

import (
	"testing"

	"rsgen/internal/moga"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
	"rsgen/internal/xrand"
)

// TestExclusionParity checks the satellite contract behind the Selector
// interface: every backend honors host-level exclusion the same way. For
// each backend, a first selection's hosts are fed back as the exclusion
// mask; the second selection must return a full-size, disjoint collection.
func TestExclusionParity(t *testing.T) {
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	// A roomy platform so a second disjoint collection always exists.
	p := platform.MustGenerate(platform.GenSpec{Clusters: 24, Year: 2006}, xrand.New(5))
	sels := newSelectors(p, &moga.Config{})
	sp, err := gen.Generate(testDAG(t), spec.Options{ClockGHz: 2.0})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	for _, name := range append(append([]string(nil), BackendNames...), "moga") {
		t.Run(name, func(t *testing.T) {
			sel, ok := sels[name]
			if !ok {
				t.Fatalf("backend %q missing from the registry", name)
			}
			if sel.Name() != name {
				t.Errorf("Name() = %q, want %q", sel.Name(), name)
			}
			first, err := sel.Select(sp, nil)
			if err != nil {
				t.Fatalf("unmasked Select: %v", err)
			}
			if first.Size() != sp.RCSize {
				t.Fatalf("unmasked Select returned %d hosts, want %d", first.Size(), sp.RCSize)
			}
			mask := make(map[platform.HostID]bool, first.Size())
			for _, h := range first.Hosts {
				mask[h.ID] = true
			}
			second, err := sel.Select(sp, mask)
			if err != nil {
				t.Fatalf("masked Select: %v", err)
			}
			if second.Size() != sp.RCSize {
				t.Fatalf("masked Select returned %d hosts, want %d", second.Size(), sp.RCSize)
			}
			for _, h := range second.Hosts {
				if mask[h.ID] {
					t.Errorf("masked Select returned excluded host %d", h.ID)
				}
			}
		})
	}
}

// TestExclusionExhaustsPool checks the other half of parity: when the mask
// covers every eligible host, all backends fail instead of returning a
// short or overlapping collection.
func TestExclusionExhaustsPool(t *testing.T) {
	gen, err := testGenerator()
	if err != nil {
		t.Fatalf("training test generator: %v", err)
	}
	p := platform.MustGenerate(platform.GenSpec{Clusters: 8, Year: 2006}, xrand.New(5))
	sels := newSelectors(p, &moga.Config{})
	sp, err := gen.Generate(testDAG(t), spec.Options{ClockGHz: 2.0})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	all := make(map[platform.HostID]bool, len(p.Hosts))
	for _, h := range p.Hosts {
		all[h.ID] = true
	}
	for _, name := range append(append([]string(nil), BackendNames...), "moga") {
		t.Run(name, func(t *testing.T) {
			if _, err := sels[name].Select(sp, all); err == nil {
				t.Error("selection succeeded with every host excluded")
			}
		})
	}
}
