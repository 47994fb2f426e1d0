package main

import "testing"

// The synthetic tree: a root [0,100] with children A [10,50] and B [40,70]
// that overlap each other, C [90,120] that sticks out of the root, and a
// grandchild A1 [20,30] under A.
func syntheticSpans() []span {
	return []span{
		{ID: 1, Parent: 0, Req: 7, Name: "statement", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 7, Name: "exec", Start: 10, End: 50},
		{ID: 3, Parent: 1, Req: 7, Name: "exec", Start: 40, End: 70},
		{ID: 4, Parent: 1, Req: 7, Name: "cleanup", Start: 90, End: 120},
		{ID: 5, Parent: 2, Req: 7, Name: "final", Start: 20, End: 30},
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	self, err := selfTimes(syntheticSpans())
	if err != nil {
		t.Fatal(err)
	}
	// root: 100 minus the union [10,70] ∪ [90,100] = 100 - 70.
	want := map[int64]int64{1: 30, 2: 30, 3: 30, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	per := layerSelf(syntheticSpans(), self)[7]
	for layer, w := range map[string]int64{"": 30, "exec": 60, "cleanup": 30, "final": 10} {
		if per[layer] != w {
			t.Errorf("layer %q self = %d, want %d", layer, per[layer], w)
		}
	}
}

func TestSelfTimeNestedAndDisjoint(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "r", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 4}, // inside a
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	if self[1] != 0 || self[2] != 10 || self[3] != 2 {
		t.Errorf("self = %v", self)
	}
}

func TestSelfTimeRejectsOpenOrOrphanSpans(t *testing.T) {
	if _, err := selfTimes([]span{{ID: 1, Start: 5, End: -1}}); err == nil {
		t.Error("an unclosed span must be an error")
	}
	if _, err := selfTimes([]span{{ID: 2, Parent: 9, Start: 0, End: 1}}); err == nil {
		t.Error("a span with an unknown parent must be an error")
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin(3, 0, "statement")
	child := tr.begin(3, root, "parse")
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 3 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	if _, err := selfTimes(spans); err != nil {
		t.Fatal(err)
	}
}
