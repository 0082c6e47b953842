package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// tableRule builds one IPv4 rule of the best-first table test.
func tableRule(src string, dstPort fivetuple.PortRange, proto fivetuple.ProtocolMatch, priority int) fivetuple.Rule {
	return fivetuple.Rule{
		SrcPrefix: fivetuple.MustParsePrefix(src),
		DstPrefix: fivetuple.MustParsePrefix("192.168.0.0/16"),
		SrcPort:   fivetuple.WildcardPortRange(),
		DstPort:   dstPort,
		Protocol:  proto,
		Priority:  priority,
		Action:    fivetuple.ActionForward,
	}
}

// tableWorkload is the installation sequence and the probe headers of
// TestRuleTableBestFirst: overlapping /16 and /8 rules installed in shuffled
// priority order with every priority repeated, one identical twin pair (same
// match and priority, different action) with other rules of its priority
// installed between the two, and three address-wildcard rules an IPv6 header
// can match — two of them tied, the better-priority ones installed last.
//
// The field tier resolves a tie between rules of different matches by its
// label walk, not by table order (the architecture assumes one priority per
// overlapping rule), so on the IPv4 probes equal priorities overlap only as
// the identical twins; the tie between different matches is probed by the
// IPv6 header, which every engine but linear answers from the table scan.
type tableWorkload struct {
	seq          []fivetuple.Rule
	twinA, twinB int // places of the twins in seq
	firstWild    int // place in seq of the first-installed of the tied wildcard rules
	headers      []fivetuple.Header
	twinHeader   fivetuple.Header // matches the twins and nothing else
	v6           fivetuple.Header // matches the three wildcard rules
}

func newTableWorkload() tableWorkload {
	w := tableWorkload{twinA: 4, twinB: 20}
	tcp := fivetuple.ExactProtocol(fivetuple.ProtoTCP)
	udp := fivetuple.ExactProtocol(fivetuple.ProtoUDP)
	rng := rand.New(rand.NewSource(23))
	for k := 0; k < 24; k++ {
		// Twelve disjoint /16 rules on even priorities, and three /8 rules per
		// port on the odd ones, each overlapping the /16s of its port.
		src, priority := fmt.Sprintf("10.%d.0.0/16", k%6), 2*rng.Intn(3)
		if k >= 12 {
			src, priority = "10.0.0.0/8", 1+2*((k-12)/4)
		}
		w.seq = append(w.seq, tableRule(src, fivetuple.ExactPort(uint16(1000+k%4)), tcp, priority))
	}
	rng.Shuffle(len(w.seq), func(i, j int) { w.seq[i], w.seq[j] = w.seq[j], w.seq[i] })
	twin := tableRule("10.1.0.0/16", fivetuple.ExactPort(2000), tcp, 3)
	w.seq = slices.Insert(w.seq, w.twinA, twin)
	twin.Action = fivetuple.ActionDrop
	w.seq = slices.Insert(w.seq, w.twinB, twin)

	wild := func(ports fivetuple.PortRange, proto fivetuple.ProtocolMatch, priority int) fivetuple.Rule {
		r := tableRule("0.0.0.0/0", ports, proto, priority)
		r.DstPrefix = fivetuple.Prefix{}
		return r
	}
	w.firstWild = len(w.seq) + 1
	w.seq = append(w.seq,
		wild(fivetuple.ExactPort(3000), udp, 5),
		wild(fivetuple.PortRange{Lo: 2500, Hi: 3500}, udp, 2),
		wild(fivetuple.PortRange{Lo: 2900, Hi: 3100}, fivetuple.ProtocolMatch{}, 2),
	)
	// A verdict names the rule that produced it: ActionArg is the rule's
	// place in the installation sequence.
	for i := range w.seq {
		w.seq[i].ActionArg = uint32(i)
	}

	v4 := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.1.7.7"), DstIP: fivetuple.MustParseIPv4("192.168.3.4"),
		SrcPort: 40000, Protocol: fivetuple.ProtoTCP,
	}
	for a := 0; a < 6; a++ {
		for p := 0; p < 4; p++ {
			h := v4
			h.SrcIP, h.DstPort = fivetuple.MustParseIPv4(fmt.Sprintf("10.%d.7.7", a)), uint16(1000+p)
			w.headers = append(w.headers, h)
		}
	}
	w.twinHeader = v4
	w.twinHeader.DstPort = 2000
	miss, wildV4 := v4, v4
	miss.DstPort = 9
	wildV4.DstPort, wildV4.Protocol = 2600, fivetuple.ProtoUDP
	w.v6 = fivetuple.Header{
		Family: fivetuple.FamilyIPv6,
		SrcIP6: fivetuple.MustParseIPv6("2001:db8::1"), DstIP6: fivetuple.MustParseIPv6("2001:db8::2"),
		SrcPort: 40000, DstPort: 3000, Protocol: fivetuple.ProtoUDP,
	}
	w.headers = append(w.headers, w.twinHeader, miss, wildV4, w.v6)
	return w
}

// scanTable is the oracle: the multi-action verdict of a first-match scan
// over a best-first rule table.
func scanTable(table []fivetuple.Rule, h fivetuple.Header) (refs []ActionRef) {
	for _, r := range table {
		if !r.Matches(h) {
			continue
		}
		refs = append(refs, ActionRef{Priority: r.Priority, Action: r.Action, ActionArg: r.ActionArg, Terminal: !r.NonTerminating})
		if !r.NonTerminating {
			break
		}
	}
	return refs
}

// requireTable asserts that the classifier's rule table is exactly want and
// that Lookup and LookupAll answer every header as a scan of it does.
func requireTable(t *testing.T, stage string, c *Classifier, want []fivetuple.Rule, headers []fivetuple.Header) {
	t.Helper()
	got := c.InstalledRules()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: InstalledRules() is not the installation sequence stably sorted by priority:\n got %v\nwant %v", stage, got, want)
	}
	for _, h := range headers {
		wantRefs := scanTable(got, h)
		res := c.Lookup(h)
		if res.Matched != (len(wantRefs) > 0) {
			t.Fatalf("%s: Lookup(%s) matched %v, table scan %v", stage, h, res.Matched, len(wantRefs) > 0)
		}
		if first := wantRefs; res.Matched && (res.Priority != first[0].Priority || res.Action != first[0].Action || res.ActionArg != first[0].ActionArg) {
			t.Fatalf("%s: Lookup(%s) = %+v, the table's first match is %+v", stage, h, res, first[0])
		}
		if refs, _ := c.LookupAll(h); !slices.Equal(refs, wantRefs) {
			t.Fatalf("%s: LookupAll(%s) = %+v, table scan %+v", stage, h, refs, wantRefs)
		}
	}
}

// TestRuleTableBestFirst pins the rule table's order — ascending priority,
// ties in installation order — as the invariant every consumer of it now
// leans on: engine indices resolve into it, the fallback scan takes its first
// match, and a delete takes the first-installed of identical rules. Every
// selectable engine is checked twice: with the rules installed on it, and
// with the rules installed under an engine of the other tier and the table
// carried across a SelectEngine hop.
func TestRuleTableBestFirst(t *testing.T) {
	sameRule := func(r fivetuple.Rule) func(fivetuple.Rule) bool {
		return func(x fivetuple.Rule) bool { return x.Priority == r.Priority && x.SameMatch(r) }
	}
	for _, name := range engine.SelectableNames() {
		for _, hop := range []bool{false, true} {
			mode := "direct"
			if hop {
				mode = "after-hop"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				w := newTableWorkload()
				// Multi-action chains need an engine declaring them on both
				// sides of a hop, so only the direct run has any.
				if !hop && engine.Dims(name).Has(fivetuple.DimMultiAction) {
					for i := range w.seq {
						w.seq[i].NonTerminating = w.seq[i].Priority%2 == 0
					}
				}
				start := name
				if isPacket, _ := engine.Selectable(name); hop && isPacket {
					start = "mbt"
				} else if hop {
					start = "hypercuts"
				}
				cfg := DefaultConfig()
				cfg.CacheCapacity = 0
				c := MustNew(cfg)
				if err := c.SelectEngine(start); err != nil {
					t.Fatalf("SelectEngine(%s): %v", start, err)
				}
				for _, r := range w.seq {
					if _, err := c.InsertRule(r); err != nil {
						t.Fatalf("InsertRule(%s): %v", r, err)
					}
				}
				if err := c.SelectEngine(name); err != nil {
					t.Fatalf("SelectEngine(%s): %v", name, err)
				}
				want := slices.Clone(w.seq)
				sort.SliceStable(want, func(i, j int) bool { return want[i].Priority < want[j].Priority })
				requireTable(t, "installed", c, want, w.headers)

				// The tied wildcard pair was installed after the worse-priority
				// one; the IPv6 header (the table scan, on every engine but
				// linear) must get the first installed of the tie.
				if got := c.Lookup(w.v6); !got.Matched || got.ActionArg != uint32(w.firstWild) {
					t.Fatalf("Lookup(%s) = %+v, want rule %d (first installed of the best priority)", w.v6, got, w.firstWild)
				}

				// Either twin names both; a delete takes the first installed,
				// the survivor answers, and goes with the second delete.
				twinA, twinB := w.seq[w.twinA], w.seq[w.twinB]
				for i, survivor := range []*fivetuple.Rule{&twinB, nil} {
					if _, err := c.DeleteRule(twinB); err != nil {
						t.Fatalf("DeleteRule(twin) #%d: %v", i+1, err)
					}
					at := slices.IndexFunc(want, sameRule(twinB))
					want = slices.Delete(want, at, at+1)
					requireTable(t, "twin deleted", c, want, w.headers)
					got := c.Lookup(w.twinHeader)
					if survivor == nil && got.Matched {
						t.Fatalf("after deleting both twins Lookup still answers %+v", got)
					}
					if survivor != nil && (got.Action != survivor.Action || got.ActionArg != survivor.ActionArg) {
						t.Fatalf("after deleting one twin Lookup = %+v, want the second-installed twin %+v", got, *survivor)
					}
				}
				if _, err := c.DeleteRule(twinA); !errors.Is(err, ErrRuleNotInstalled) {
					t.Fatalf("third DeleteRule(twin) = %v, want ErrRuleNotInstalled", err)
				}
			})
		}
	}
}

// tableState is a deep copy of a ruleTable: every slot's rule, every
// chunk's identity (the address of its first slot) and the id list.
type tableState struct {
	slots  []fivetuple.Rule
	chunks []*fivetuple.Rule
	ids    []uint32
	live   int
}

func stateOfTable(t *ruleTable) tableState {
	s := tableState{ids: slices.Clone(t.ids), live: t.live}
	for id := range t.slots.Len() {
		s.slots = append(s.slots, *t.slots.At(id))
		if id%64 == 0 {
			s.chunks = append(s.chunks, t.slots.At(id))
		}
	}
	return s
}

func requireTableState(t *testing.T, who string, tbl *ruleTable, want tableState) {
	t.Helper()
	got := stateOfTable(tbl)
	if !slices.Equal(got.slots, want.slots) || !slices.Equal(got.chunks, want.chunks) {
		t.Fatalf("%s: slots or chunks changed", who)
	}
	if !slices.Equal(got.ids, want.ids) || got.live != want.live {
		t.Fatalf("%s: id list changed", who)
	}
}

// tableInsert places r as txn.insertRule does: after every rule of its
// priority.
func tableInsert(tbl *ruleTable, r fivetuple.Rule) {
	tbl.insert(tbl.bound(r.Priority, true), r)
}

// tableRules lists the table best-first.
func tableRules(tbl *ruleTable) []fivetuple.Rule {
	out := make([]fivetuple.Rule, tbl.len())
	for i := range out {
		out[i] = *tbl.at(i)
	}
	return out
}

// TestRuleTableUnit pins the table below the classifier: best-first order
// with ties in installation order, a delete that frees its slot without
// writing it and an insert that reuses it, and clones that never write what
// they share — neither the clone's writes the original's chunks and id list,
// nor the original's writes the clone's.
func TestRuleTableUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tbl ruleTable
	var seq []fivetuple.Rule
	for i := range 300 {
		r := fivetuple.Wildcard(rng.Intn(40), fivetuple.ActionForward)
		r.ActionArg = uint32(i)
		tableInsert(&tbl, r)
		seq = append(seq, r)
	}
	want := slices.Clone(seq)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Priority < want[j].Priority })
	if got := tableRules(&tbl); !slices.Equal(got, want) {
		t.Fatalf("table order is not the installation sequence stably sorted by priority:\n got %v\nwant %v", got, want)
	}

	// A delete on a clone copies the id list and nothing else; the insert
	// after it lands in the freed slot.
	before := stateOfTable(&tbl)
	cl := tbl.clone()
	freed := cl.ids[17]
	cl.delete(17)
	if got := stateOfTable(&cl); !slices.Equal(got.chunks, before.chunks) || !slices.Equal(got.slots, before.slots) {
		t.Fatal("a delete wrote a slot")
	}
	r := fivetuple.Wildcard(1, fivetuple.ActionDrop)
	tableInsert(&cl, r)
	if cl.slots.Len() != tbl.slots.Len() || *cl.slots.At(int(freed)) != r {
		t.Fatalf("the insert after a delete did not reuse the freed slot %d (%d slots, want %d)", freed, cl.slots.Len(), tbl.slots.Len())
	}
	for range 100 {
		if rng.Intn(2) == 0 {
			cl.delete(rng.Intn(cl.len()))
		} else {
			tableInsert(&cl, fivetuple.Wildcard(rng.Intn(40), fivetuple.ActionDrop))
		}
	}
	requireTableState(t, "original after the clone's writes", &tbl, before)

	cl = tbl.clone()
	cloned := stateOfTable(&cl)
	for range 100 {
		tableInsert(&tbl, fivetuple.Wildcard(rng.Intn(40), fivetuple.ActionController))
		tbl.delete(rng.Intn(tbl.len()))
	}
	requireTableState(t, "clone after the original's writes", &cl, cloned)
}
