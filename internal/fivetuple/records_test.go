package fivetuple

import (
	"strings"
	"testing"
)

// recordRules returns n IPv4 rules at priorities 0..n-1, each with its own
// destination port and action argument.
func recordRules(n int) []Rule {
	rules := make([]Rule, n)
	for i := range rules {
		rules[i] = Wildcard(i, ActionForward)
		rules[i].DstPort = ExactPort(uint16(1000 + i))
		rules[i].ActionArg = uint32(i)
	}
	return rules
}

// listStructure is the smallest structure over Records: a list of live ids
// that place appends to and remove takes the first match out of.
type listStructure struct {
	Records
	ids []uint32
}

func (l *listStructure) place(_ *PackedRule, id uint32) int {
	l.ids = append(l.ids, id)
	return 1
}

func (l *listStructure) remove(p PackedRule) (int, bool) {
	for i, id := range l.ids {
		if l.At(int(id)).Same(&p) {
			l.ids = append(l.ids[:i:i], l.ids[i+1:]...)
			return 1, true
		}
	}
	return 0, false
}

// TestRecordsBookkeeping walks the record store through a build, inserts,
// deletes, refusals and a Clone: ids are issued in order and never reused,
// the counters and the dead-id bound follow, a refused op changes nothing,
// and neither side of a Clone sees the other's records.
func TestRecordsBookkeeping(t *testing.T) {
	if _, err := NewRecords("list", nil); err == nil || !strings.Contains(err.Error(), "list: empty rule set") {
		t.Errorf("NewRecords of no rules: error %v, want an empty-set refusal", err)
	}
	v6 := Wildcard(0, ActionDrop)
	v6.Src6 = MustParsePrefix6("2001:db8::/32")
	if _, err := NewRecords("list", []Rule{v6}); err == nil || !strings.Contains(err.Error(), "cannot encode") {
		t.Errorf("NewRecords of an IPv6 rule: error %v, want a refusal naming the dimension", err)
	}

	rules := recordRules(3)
	recs, err := NewRecords("list", rules)
	if err != nil {
		t.Fatal(err)
	}
	l := &listStructure{Records: recs, ids: []uint32{0, 1, 2}}
	if l.NumRules() != 3 || l.IDs() != 3 || l.Verdict(2) != rules[2].Verdict() || l.DeltaStats() != (DeltaStats{}) {
		t.Fatalf("after the build: %d live, %d ids, verdict %+v, %+v", l.NumRules(), l.IDs(), l.Verdict(2), l.DeltaStats())
	}

	extra := recordRules(5)[4]
	if err := l.Insert(&extra, l.place); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert(&v6, l.place); err == nil {
		t.Error("Insert of an IPv6 rule was accepted")
	}
	if err := l.Delete(&rules[0], l.remove); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(&rules[0], l.remove); err == nil || !strings.Contains(err.Error(), "no rule with these matches") {
		t.Errorf("second Delete of rule 0: error %v, want not installed", err)
	}
	if err := l.Delete(&v6, l.remove); err == nil || !strings.Contains(err.Error(), "not installed") {
		t.Errorf("Delete of an IPv6 rule: error %v, want not installed", err)
	}
	if got, want := l.DeltaStats(), (DeltaStats{Deltas: 2, DeadIDs: 1, Writes: 2}); got != want || l.NumRules() != 3 || l.IDs() != 4 {
		t.Fatalf("after one insert and one delete: %+v, %d live, %d ids; want %+v, 3 live, 4 ids", got, l.NumRules(), l.IDs(), want)
	}
	if l.Verdict(3) != extra.Verdict() {
		t.Errorf("inserted id 3 reads %+v, want %+v", l.Verdict(3), extra.Verdict())
	}

	// The positional shims check their ranges first.
	if err := l.InsertAt(&extra, 4, l.place); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("InsertAt past the live count: error %v", err)
	}
	if err := l.DeleteAt(4, l.remove); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("DeleteAt past the issued ids: error %v", err)
	}
	if err := l.DeleteAt(1, l.remove); err != nil {
		t.Fatal(err)
	}
	if err := l.InsertAt(&rules[1], 2, l.place); err != nil {
		t.Fatal(err)
	}

	// Clone isolates both ways.
	cl := &listStructure{Records: l.Records.Clone(), ids: append([]uint32(nil), l.ids...)}
	more := recordRules(7)[6]
	if err := cl.Insert(&more, cl.place); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert(&rules[0], l.place); err != nil {
		t.Fatal(err)
	}
	if l.IDs() != 6 || cl.IDs() != 6 || l.Verdict(5) != rules[0].Verdict() || cl.Verdict(5) != more.Verdict() {
		t.Errorf("after a write on each side of a Clone: ids %d / %d, id 5 reads %+v / %+v", l.IDs(), cl.IDs(), l.Verdict(5), cl.Verdict(5))
	}
}

// TestRecordsDeadIDBound: delete+insert pairs retire one id each, until the
// delete that would leave more dead ids than live ones plus DeadSlack is
// refused, changing nothing.
func TestRecordsDeadIDBound(t *testing.T) {
	rules := recordRules(2)
	recs, err := NewRecords("list", rules)
	if err != nil {
		t.Fatal(err)
	}
	l := &listStructure{Records: recs, ids: []uint32{0, 1}}
	for pair := 0; ; pair++ {
		before := l.DeltaStats()
		if err := l.Delete(&rules[1], l.remove); err != nil {
			if !strings.Contains(err.Error(), "rebuild to renumber") || before.DeadIDs+1 <= l.NumRules()-1+DeadSlack {
				t.Fatalf("pair %d: Delete refused at %d dead ids beside %d live rules: %v", pair, before.DeadIDs, l.NumRules(), err)
			}
			if l.DeltaStats() != before || l.NumRules() != 2 {
				t.Fatalf("the refused delete changed the records: %+v -> %+v", before, l.DeltaStats())
			}
			return
		}
		if err := l.Insert(&rules[1], l.place); err != nil {
			t.Fatal(err)
		}
		if dead := l.DeltaStats().DeadIDs; dead != pair+1 || dead > l.NumRules()+DeadSlack {
			t.Fatalf("pair %d: %d dead ids beside %d live rules", pair, dead, l.NumRules())
		}
	}
}
