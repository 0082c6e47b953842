package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNs: 0, EndNs: 100},
		// Children overlap each other (10-40 and 30-60), one sticks out past
		// the parent's end (90-120) and one lies outside it entirely.
		{ID: 2, Parent: 1, Name: "child", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "child", StartNs: 30, EndNs: 60},
		{ID: 4, Parent: 1, Name: "child", StartNs: 90, EndNs: 120},
		{ID: 5, Parent: 1, Name: "child", StartNs: 130, EndNs: 140},
		{ID: 6, Parent: 3, Name: "grandchild", StartNs: 35, EndNs: 45},
	}
	rows := map[string]layerRow{}
	for _, r := range layerTable(spans) {
		rows[r.Name] = r
	}
	// Covered: [10,60] = 50 plus [90,100] = 10; self = 100 - 60.
	if p := rows["parent"]; p.Count != 1 || p.TotalNs != 100 || p.SelfNs != 40 {
		t.Errorf("parent row = %+v, want total 100 self 40", p)
	}
	// Child totals 30+30+30+10; child 3 has a 10 ns grandchild.
	if c := rows["child"]; c.Count != 4 || c.TotalNs != 100 || c.SelfNs != 90 {
		t.Errorf("child row = %+v, want total 100 self 90", c)
	}
	if g := rows["grandchild"]; g.SelfNs != 10 {
		t.Errorf("grandchild row = %+v, want self 10", g)
	}
}

func TestRecorderSpansNest(t *testing.T) {
	rec := newRecorder()
	outer := rec.begin("outer", 0, 7)
	inner := rec.begin("inner", outer, 7)
	rec.end(inner)
	rec.end(outer)
	if rec.spans[inner-1].Parent != outer || rec.spans[inner-1].Req != 7 {
		t.Errorf("inner span = %+v", rec.spans[inner-1])
	}
	if rec.duration(outer) < rec.duration(inner) {
		t.Error("outer span shorter than the span it contains")
	}
}
