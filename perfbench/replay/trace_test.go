package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		// Children overlap each other (10–60 covered once) and one runs
		// past the parent's end (clipped at 100).
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "a", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 4, Parent: 2, Name: "c", Start: 35, End: 45},
	}
	got := map[string]layerStat{}
	for _, st := range layerStats(spans) {
		got[st.Name] = st
	}
	want := map[string]layerStat{
		"op": {Name: "op", Count: 1, Total: 100, Self: 40},
		"a":  {Name: "a", Count: 2, Total: 60, Self: 60},
		"b":  {Name: "b", Count: 1, Total: 30, Self: 20},
		"c":  {Name: "c", Count: 1, Total: 10, Self: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerNestsSpansAndNilIsOff(t *testing.T) {
	tr := newTracer()
	root := tr.startTrace("op")
	child := tr.begin("dag.decode")
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Trace != tr.spans[0].Trace {
		t.Fatalf("spans not nested under one trace: %+v", tr.spans)
	}
	if st := layerStats(tr.spans); st[0].Self >= st[0].Total {
		t.Errorf("root self %v not below its total %v", st[0].Self, st[0].Total)
	}
	var off *tracer
	off.end(off.begin("x")) // must not panic
}
