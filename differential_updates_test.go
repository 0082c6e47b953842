package sdnpc

import (
	"fmt"
	"sort"
	"testing"

	"sdnpc/internal/bench"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// The update-path differential suite: fuzz-decoded *mutation sequences*
// (insert / delete / engine-hop) applied through the incremental publish
// path must leave every packet engine answering byte-identically to a
// freshly rebuilt engine over the same live rules and to a best-first linear
// oracle. FuzzDifferentialUpdates explores random sequences;
// TestDifferentialEngines gains a deterministic update-sequence corpus
// (delete-then-reinsert, priority inversion, duplicate rule, delete-missing)
// in differential_test.go's style so the property holds on every plain
// `go test` run.

const (
	maxFuzzInitRules = 16
	maxFuzzOps       = 12
	maxFuzzOpHeaders = 8
	fuzzOpBytes      = 2
)

// fuzzUpdateOp is one decoded mutation.
type fuzzUpdateOp struct {
	kind byte // 0/1 = insert, 2 = delete, 3 = engine hop
	sel  byte
	rule fivetuple.Rule
}

// decodeUpdateInput maps fuzz bytes to an initial rule list, a mutation
// sequence and a probe header list. Rule priorities are forced unique
// (position for the initial rules, 1000+op for inserts) so the best-first
// oracle is unambiguous; the deterministic corpus covers duplicate
// identities separately.
func decodeUpdateInput(data []byte) (init []fivetuple.Rule, ops []fuzzUpdateOp, headers []fivetuple.Header) {
	if len(data) < 3 {
		return nil, nil, nil
	}
	nInit := 1 + int(data[0])%maxFuzzInitRules
	nOps := 1 + int(data[1])%maxFuzzOps
	nHeaders := 1 + int(data[2])%maxFuzzOpHeaders
	data = data[3:]

	for i := 0; i < nInit && len(data) >= fuzzRuleBytes; i++ {
		r := decodeFuzzRule(data[:fuzzRuleBytes], i)
		r.Priority = i
		init = append(init, r)
		data = data[fuzzRuleBytes:]
	}
	for i := 0; i < nHeaders && len(data) >= fuzzHdrBytes; i++ {
		headers = append(headers, decodeFuzzHeader(data[:fuzzHdrBytes]))
		data = data[fuzzHdrBytes:]
	}
	for i := 0; i < nOps && len(data) >= fuzzOpBytes; i++ {
		op := fuzzUpdateOp{kind: data[0] % 4, sel: data[1]}
		data = data[fuzzOpBytes:]
		if op.kind <= 1 {
			if len(data) < fuzzRuleBytes {
				break
			}
			op.rule = decodeFuzzRule(data[:fuzzRuleBytes], 1000+i)
			op.rule.Priority = 1000 + i
			data = data[fuzzRuleBytes:]
		}
		ops = append(ops, op)
	}
	// Aim the first header at the first initial rule so sequences exercise
	// the match path.
	if len(init) > 0 && len(headers) > 0 {
		headers[0] = headerMatchingRule(init[0])
	}
	// Extended-dimension rules (IPv6 prefixes, exact VLAN tags) are
	// essentially unreachable by random headers; engineer one probe per
	// extended rule so churn over them is actually observed.
	for _, r := range init {
		if r.IsExtended() {
			headers = append(headers, headerMatchingRule(r))
		}
	}
	for _, op := range ops {
		if op.kind <= 1 && op.rule.IsExtended() {
			headers = append(headers, headerMatchingRule(op.rule))
		}
	}
	return init, ops, headers
}

// bestFirstOracle returns the highest-priority (lowest value) live rule
// matching h. Priorities are unique by construction of the decoders.
func bestFirstOracle(live []fivetuple.Rule, h fivetuple.Header) (fivetuple.Rule, bool) {
	best := fivetuple.Rule{}
	found := false
	for _, r := range live {
		if r.Matches(h) && (!found || r.Priority < best.Priority) {
			best = r
			found = true
		}
	}
	return best, found
}

// multiActionOracle returns the live rules contributing to the multi-action
// verdict for h, in priority order: every matching non-terminating rule up to
// and including the first matching terminating one.
func multiActionOracle(live []fivetuple.Rule, h fivetuple.Header) []fivetuple.Rule {
	var matched []fivetuple.Rule
	for _, r := range live {
		if r.Matches(h) {
			matched = append(matched, r)
		}
	}
	sort.SliceStable(matched, func(i, j int) bool { return matched[i].Priority < matched[j].Priority })
	out := matched[:0]
	for _, r := range matched {
		out = append(out, r)
		if !r.NonTerminating {
			break
		}
	}
	return out
}

// checkAgainstOracle asserts one classifier agrees with the best-first
// oracle on every header, under first-match and multi-action semantics, and
// that a worker-pinned Reader — a different lane from header to header —
// returns what the anonymous Lookup did, so no lane's private cache serves a
// verdict of a superseded rule set.
func checkAgainstOracle(t testing.TB, phase, label string, c *core.Classifier, live []fivetuple.Rule, headers []fivetuple.Header) {
	t.Helper()
	for i, h := range headers {
		want, wantOK := bestFirstOracle(live, h)
		got := c.Lookup(h)
		if got.Matched != wantOK {
			t.Fatalf("%s %s header %d (%s): matched = %v, oracle says %v", phase, label, i, h, got.Matched, wantOK)
		}
		if wantOK && (got.Priority != want.Priority || got.Action != want.Action || got.ActionArg != want.ActionArg) {
			t.Fatalf("%s %s header %d (%s): got priority %d action %v/%d, oracle priority %d action %v/%d",
				phase, label, i, h, got.Priority, got.Action, got.ActionArg,
				want.Priority, want.Action, want.ActionArg)
		}
		if pinned := c.Reader(i).Lookup(h); pinned != got {
			t.Fatalf("%s %s header %d (%s): Reader(%d) returned %+v, Lookup %+v", phase, label, i, h, i, pinned, got)
		}
		wantAll := multiActionOracle(live, h)
		gotAll, _ := c.LookupAll(h)
		if len(gotAll) != len(wantAll) {
			t.Fatalf("%s %s header %d (%s): %d action refs, oracle says %d (%v vs %v)",
				phase, label, i, h, len(gotAll), len(wantAll), gotAll, wantAll)
		}
		for j, r := range wantAll {
			ref := gotAll[j]
			if ref.Priority != r.Priority || ref.Action != r.Action || ref.ActionArg != r.ActionArg || ref.Terminal == r.NonTerminating {
				t.Fatalf("%s %s header %d (%s): action ref %d = %+v, oracle rule %s",
					phase, label, i, h, j, ref, r)
			}
		}
	}
}

// removeFirstMatch mirrors core's delete identity: drop the first live rule
// (in installation order) with the same field matches and priority.
func removeFirstMatch(live []fivetuple.Rule, r fivetuple.Rule) []fivetuple.Rule {
	for i, lr := range live {
		if lr.Priority == r.Priority &&
			lr.SrcPrefix.Canonical() == r.SrcPrefix.Canonical() &&
			lr.DstPrefix.Canonical() == r.DstPrefix.Canonical() &&
			lr.SrcPort == r.SrcPort && lr.DstPort == r.DstPort && lr.Protocol == r.Protocol {
			return append(append([]fivetuple.Rule(nil), live[:i]...), live[i+1:]...)
		}
	}
	return live
}

// runDifferentialUpdates applies the mutation sequence through each packet
// engine's publish path (plus cached variants of hypercuts and dcfl on the
// host's lanes and on multiLanes forced ones, so lane-private caches sit in
// front of every published snapshot) and through each field engine's
// copy-on-write update path, checking every intermediate state against the
// best-first oracle and the final state against a freshly built classifier.
// The sequences are far shorter than DefaultRebuildAfterDeltas, so the
// packet engines delta-apply them unless a small rule set trips the
// degradation rebuild; FuzzIncrementalDeltas drives delta chains of any
// length at the engine, where no policy runs.
func runDifferentialUpdates(t testing.TB, init []fivetuple.Rule, ops []fuzzUpdateOp, headers []fivetuple.Header) {
	t.Helper()
	// The whole sequence's dimension requirement (initial rules plus every
	// inserted rule) gates which engines run it and which engine hops are
	// legal — the core refuses to install or switch onto an engine that does
	// not declare a live rule's dimensions, and that refusal is a correct
	// answer, not a differential divergence.
	need := fivetuple.RequiredDims(init)
	for _, op := range ops {
		if op.kind <= 1 {
			need |= op.rule.Dims()
		}
	}
	var selectable []string
	for _, name := range engine.SelectableNames() {
		if engine.Dims(name).Covers(need) {
			selectable = append(selectable, name)
		}
	}
	// lanes is the forced serving-lane count (0 keeps the host's own).
	type variant struct {
		cfg   core.Config
		lanes int
	}
	variants := make(map[string]variant)
	for _, name := range engine.PacketEngineNames() {
		if !engine.Dims(name).Covers(need) {
			continue
		}
		variants[name] = variant{cfg: bench.EngineConfig(name)}
	}
	// The field tier's update path — shared label bank, path-copied tries,
	// chunk-copied Rule Filter — runs the sequence under every field engine
	// that covers it, instead of only when an op hops onto one.
	for _, name := range engine.IPEngineNames() {
		if engine.Dims(name).Covers(need) {
			variants[name] = variant{cfg: bench.EngineConfig(name)}
		}
	}
	// The cached variants ride on the two incremental structures, hypercuts
	// and dcfl, when they cover the sequence, and on the always-covering
	// linear engine otherwise, so extended sequences still churn through the
	// lane caches.
	var cachedBases []string
	for _, name := range []string{"hypercuts", "dcfl"} {
		if engine.Dims(name).Covers(need) {
			cachedBases = append(cachedBases, name)
		}
	}
	if len(cachedBases) == 0 {
		cachedBases = []string{"linear"}
	}
	for _, base := range cachedBases {
		cached := bench.CachedEngineConfig(base, 4, 1024)
		variants[base+"+cache"] = variant{cfg: cached}
		variants[fmt.Sprintf("%s+cache/%d-lanes", base, multiLanes)] = variant{cfg: cached, lanes: multiLanes}
	}

	for label, v := range variants {
		c, err := newWithLanes(v.lanes, v.cfg)
		if err != nil {
			t.Fatalf("building %s classifier: %v", label, err)
		}
		live := append([]fivetuple.Rule(nil), init...)
		installOps := make([]core.UpdateOp, len(init))
		for i, r := range init {
			installOps[i] = core.UpdateOp{Rule: r}
		}
		if _, _, err := c.ApplyUpdates(installOps); err != nil {
			t.Fatalf("%s: installing %d initial rules: %v", label, len(init), err)
		}
		checkAgainstOracle(t, "init", label, c, live, headers)

		for i, op := range ops {
			switch op.kind {
			case 2: // delete a live rule (selected deterministically)
				if len(live) == 0 {
					continue
				}
				target := live[int(op.sel)%len(live)]
				if _, err := c.DeleteRule(target); err != nil {
					t.Fatalf("%s op %d: DeleteRule(%s): %v", label, i, target, err)
				}
				live = removeFirstMatch(live, target)
			case 3: // hop the serving engine mid-sequence
				name := selectable[int(op.sel)%len(selectable)]
				if err := c.SelectEngine(name); err != nil {
					t.Fatalf("%s op %d: SelectEngine(%s): %v", label, i, name, err)
				}
			default: // insert
				if _, err := c.InsertRule(op.rule); err != nil {
					t.Fatalf("%s op %d: InsertRule(%s): %v", label, i, op.rule, err)
				}
				live = append(live, op.rule)
			}
			checkAgainstOracle(t, "mutated", label, c, live, headers)
		}
		if table := c.InstalledRules(); !sort.SliceIsSorted(table, func(i, j int) bool { return table[i].Priority < table[j].Priority }) {
			t.Fatalf("%s: the rule table is not best-first after the sequence: %v", label, table)
		}

		// Final cross-check: a freshly built classifier on whatever engine
		// the sequence left active must answer byte-identically to the
		// delta-updated one.
		fresh := freshlyBuilt(t, c.ActiveEngineName(), live)
		for i, h := range headers {
			got, want := c.Lookup(h), fresh.Lookup(h)
			if got.Matched != want.Matched || got.Priority != want.Priority ||
				got.Action != want.Action || got.ActionArg != want.ActionArg {
				t.Fatalf("%s header %d (%s): delta path %+v, freshly rebuilt %+v", label, i, h, got, want)
			}
		}
	}
}

// freshlyBuilt returns a classifier serving the named engine whose structure
// was built in one piece over live — the comparator a delta-churned
// classifier must answer like. The rules go in on the linear scan, which
// covers every dimension, and the switch to name builds its tier from the
// table in full, as every engine switch does; for linear itself, a splice
// into the empty scan leaves what that build would.
func freshlyBuilt(t testing.TB, name string, live []fivetuple.Rule) *core.Classifier {
	t.Helper()
	fresh := core.MustNew(bench.EngineConfig("linear"))
	ops := make([]core.UpdateOp, len(live))
	for i, r := range live {
		ops[i] = core.UpdateOp{Rule: r}
	}
	if len(ops) > 0 {
		if _, _, err := fresh.ApplyUpdates(ops); err != nil {
			t.Fatalf("installing %d rules on the fresh comparator: %v", len(live), err)
		}
	}
	if err := fresh.SelectEngine(name); err != nil {
		t.Fatalf("building the fresh %s comparator: %v", name, err)
	}
	return fresh
}

// FuzzDifferentialUpdates drives fuzz-decoded mutation sequences through the
// incremental update path of every packet engine (and the cached hypercuts
// and dcfl variants) and the update path of every field engine, asserting byte-identical verdicts versus the best-first oracle
// after every mutation and versus a freshly rebuilt engine at the end. CI
// runs it as a smoke pass (-fuzz=FuzzDifferentialUpdates -fuzztime=30s).
func FuzzDifferentialUpdates(f *testing.F) {
	// Seeds: one insert on a single rule; a delete/insert/hop mix; dense ops
	// over several rules.
	f.Add([]byte{0, 0, 0,
		10, 0, 0, 1, 32, 192, 168, 0, 1, 24, 0, 0, 255, 255, 0, 80, 0, 80, 6, 0,
		10, 0, 0, 1, 192, 168, 0, 99, 1, 1, 0, 80, 6,
		0, 7, 9, 9, 9, 9, 8, 7, 7, 7, 7, 33, 0, 1, 255, 254, 128, 0, 255, 255, 6, 0})
	f.Add([]byte{2, 5, 2,
		1, 2, 3, 4, 16, 5, 6, 7, 8, 0, 255, 255, 255, 255, 0, 0, 0, 0, 17, 1,
		9, 9, 9, 9, 8, 7, 7, 7, 7, 33, 0, 1, 255, 254, 128, 0, 255, 255, 6, 0,
		1, 2, 200, 4, 5, 6, 7, 8, 255, 255, 255, 255, 17,
		9, 9, 1, 1, 7, 7, 2, 2, 0, 0, 65, 66, 6,
		2, 0,
		3, 4,
		0, 1, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
		2, 9,
		3, 1})
	f.Add([]byte{255, 255, 255, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109,
		110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 121,
		130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140,
		3, 3, 2, 200, 1, 50, 0, 9, 9, 9, 9, 8, 7, 7, 7, 7, 33, 0, 1, 255, 254, 128, 0, 255, 255, 6, 0})
	// Extension-dimension seed: the init rule carries IPv6 prefixes +
	// non-terminating (b[19] = 18 = 2|16) and the inserted rule VLAN + TCP
	// flags + non-terminating (28 = 4|8|16), driving the delta path and the
	// dims-gated engine hops through the extended decode.
	f.Add([]byte{0, 0, 0,
		10, 0, 0, 1, 32, 192, 168, 0, 1, 24, 0, 0, 255, 255, 0, 80, 0, 80, 6, 18,
		10, 0, 0, 1, 192, 168, 0, 99, 1, 1, 0, 80, 6,
		0, 7, 9, 9, 9, 9, 8, 7, 7, 7, 7, 33, 0, 1, 255, 254, 128, 0, 255, 255, 6, 28})
	f.Fuzz(func(t *testing.T, data []byte) {
		init, ops, headers := decodeUpdateInput(data)
		if len(init) == 0 || len(ops) == 0 || len(headers) == 0 {
			t.Skip("input too short to decode a mutation workload")
		}
		runDifferentialUpdates(t, init, ops, headers)
	})
}

// TestDifferentialUpdateSequences is the deterministic update-sequence
// corpus: the churn patterns most likely to break a delta path —
// delete-then-reinsert, priority inversion, duplicate rules and
// delete-missing — replayed through every packet engine's incremental
// publish path on every plain `go test` run.
func TestDifferentialUpdateSequences(t *testing.T) {
	prefix := fivetuple.MustParsePrefix
	mk := func(src string, dstPort uint16, priority int, arg uint32) fivetuple.Rule {
		return fivetuple.Rule{
			SrcPrefix: prefix(src), DstPrefix: prefix("0.0.0.0/0"),
			SrcPort: fivetuple.WildcardPortRange(), DstPort: fivetuple.ExactPort(dstPort),
			Protocol: fivetuple.ExactProtocol(fivetuple.ProtoTCP),
			Priority: priority, Action: fivetuple.ActionForward, ActionArg: arg,
		}
	}
	hdr := func(src string, dstPort uint16) fivetuple.Header {
		return fivetuple.Header{
			SrcIP: fivetuple.MustParseIPv4(src), DstIP: fivetuple.MustParseIPv4("10.9.9.9"),
			SrcPort: 1234, DstPort: dstPort, Protocol: fivetuple.ProtoTCP,
		}
	}

	for _, name := range engine.PacketEngineNames() {
		t.Run(name, func(t *testing.T) {
			c, err := core.New(bench.EngineConfig(name))
			if err != nil {
				t.Fatal(err)
			}
			// Filler rules that no probe matches keep the set from being
			// tiny: over two rules, one delete leaves half of dcfl's
			// combination entries stale, which trips the degradation rebuild
			// and takes the sequence off the delta path.
			for i := range 8 {
				if _, err := c.InsertRule(mk(fmt.Sprintf("192.0.2.%d/32", i), uint16(9000+i), 100+i, 0)); err != nil {
					t.Fatal(err)
				}
			}
			a := mk("10.1.0.0/16", 80, 1, 10)
			b := mk("10.0.0.0/8", 80, 5, 20)
			if _, err := c.InsertRule(a); err != nil {
				t.Fatal(err)
			}
			if _, err := c.InsertRule(b); err != nil {
				t.Fatal(err)
			}
			probe := hdr("10.1.2.3", 80)
			live := []fivetuple.Rule{a, b}
			checkAgainstOracle(t, "seed", name, c, live, []fivetuple.Header{probe})

			t.Run("delete-then-reinsert", func(t *testing.T) {
				if _, err := c.DeleteRule(a); err != nil {
					t.Fatal(err)
				}
				if got := c.Lookup(probe); !got.Matched || got.Priority != 5 {
					t.Fatalf("after deleting the specific rule: %+v, want the /8 fallback", got)
				}
				if _, err := c.InsertRule(a); err != nil {
					t.Fatal(err)
				}
				if got := c.Lookup(probe); !got.Matched || got.Priority != 1 {
					t.Fatalf("after reinsert: %+v, want the specific rule back", got)
				}
			})

			t.Run("priority-inversion", func(t *testing.T) {
				// A better-priority rule arriving later must splice in at the
				// front of the best-first order, displacing both live rules.
				top := mk("10.0.0.0/7", 80, 0, 30)
				if _, err := c.InsertRule(top); err != nil {
					t.Fatal(err)
				}
				if got := c.Lookup(probe); !got.Matched || got.Priority != 0 || got.ActionArg != 30 {
					t.Fatalf("after inserting a better-priority rule: %+v, want priority 0", got)
				}
				if _, err := c.DeleteRule(top); err != nil {
					t.Fatal(err)
				}
				if got := c.Lookup(probe); !got.Matched || got.Priority != 1 {
					t.Fatalf("after removing it again: %+v, want the original winner", got)
				}
			})

			t.Run("duplicate-rule", func(t *testing.T) {
				// Two live rules with identical matches and priority: deleting
				// one must leave the verdict intact, deleting the second
				// removes it.
				if _, err := c.InsertRule(a); err != nil {
					t.Fatalf("inserting the duplicate: %v", err)
				}
				if _, err := c.DeleteRule(a); err != nil {
					t.Fatal(err)
				}
				if got := c.Lookup(probe); !got.Matched || got.Priority != 1 {
					t.Fatalf("after deleting one duplicate: %+v, want the twin still serving", got)
				}
				if _, err := c.DeleteRule(a); err != nil {
					t.Fatal(err)
				}
				if got := c.Lookup(probe); !got.Matched || got.Priority != 5 {
					t.Fatalf("after deleting both duplicates: %+v, want the /8 fallback", got)
				}
				if _, err := c.InsertRule(a); err != nil {
					t.Fatal(err)
				}
			})

			t.Run("delete-missing", func(t *testing.T) {
				before := c.Report().Updates
				missing := mk("172.16.0.0/12", 7777, 99, 0)
				if _, err := c.DeleteRule(missing); err == nil {
					t.Fatal("deleting a never-installed rule should fail")
				}
				after := c.Report().Updates
				if after.PublishLatency.Total() != before.PublishLatency.Total() {
					t.Fatal("a failed delete must not publish")
				}
				if got := c.Lookup(probe); !got.Matched || got.Priority != 1 {
					t.Fatalf("verdicts changed after a failed delete: %+v", got)
				}
			})

			t.Run("equal-priority-ties", func(t *testing.T) {
				checkTieOrder(t, name)
			})

			// The sequence ran entirely on the delta path for engines that
			// take deltas; pin that so the corpus cannot silently regress
			// into testing the rebuild path.
			stats := c.Report().Updates
			eng, err := engine.NewPacket(name, engine.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			if _, takesDeltas := eng.(engine.IncrementalPacketEngine); takesDeltas {
				// At most the seed build pays a rebuild: engines that splice
				// deltas straight into an empty structure (linear) report zero.
				if stats.DeltasApplied == 0 || stats.Rebuilds > 1 {
					t.Errorf("update-sequence corpus for %s left stats %+v; want deltas with at most the seed rebuild", name, stats)
				}
			} else if stats.DeltasApplied != 0 {
				t.Errorf("non-incremental %s applied deltas: %+v", name, stats)
			}

			// Final differential sweep: delta-churned classifier versus a
			// freshly rebuilt one over the surviving rules.
			fresh := freshlyBuilt(t, name, c.InstalledRules())
			for _, h := range []fivetuple.Header{probe, hdr("10.200.0.1", 80), hdr("10.1.2.3", 81)} {
				got, want := c.Lookup(h), fresh.Lookup(h)
				if got.Matched != want.Matched || got.Priority != want.Priority || got.ActionArg != want.ActionArg {
					t.Fatalf("final state diverged on %s: delta %+v, rebuilt %+v", h, got, want)
				}
			}
		})
	}
}

// checkTieOrder runs three overlapping rules of one priority — a wire tenant
// installs every rule at priority 0 — through the named packet engine's delta
// path and a rebuild, against an install-order oracle: the first installed
// rule wins, and a multi-action chain lists the ties in installation order.
// The third rule repeats the first's matches, so a structure that files such
// rules together (dcfl's final sets) must order them too. Where the engine
// serves multi-action rules the first two do not terminate, so the chain
// shows the whole order.
func checkTieOrder(t *testing.T, name string) {
	c := core.MustNew(bench.EngineConfig(name))
	chain := engine.Dims(name).Covers(fivetuple.DimMultiAction)
	var live []fivetuple.Rule
	for i, src := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.0.0.0/8"} {
		r := fivetuple.Rule{
			SrcPrefix: fivetuple.MustParsePrefix(src), DstPrefix: fivetuple.MustParsePrefix("0.0.0.0/0"),
			SrcPort: fivetuple.WildcardPortRange(), DstPort: fivetuple.WildcardPortRange(),
			Protocol: fivetuple.WildcardProtocol(), Action: fivetuple.ActionForward, ActionArg: uint32(i + 1),
			NonTerminating: chain && i < 2,
		}
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
		live = append(live, r)
	}
	headers := []fivetuple.Header{
		{SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstIP: fivetuple.MustParseIPv4("192.0.2.1"), SrcPort: 1, DstPort: 2, Protocol: fivetuple.ProtoUDP},
		{SrcIP: fivetuple.MustParseIPv4("10.1.9.9"), DstIP: fivetuple.MustParseIPv4("192.0.2.1"), SrcPort: 1, DstPort: 2, Protocol: fivetuple.ProtoTCP},
		{SrcIP: fivetuple.MustParseIPv4("10.7.0.1"), DstIP: fivetuple.MustParseIPv4("192.0.2.1"), SrcPort: 1, DstPort: 2, Protocol: fivetuple.ProtoTCP},
	}
	checkAgainstOracle(t, "installed", name, c, live, headers)

	first := live[0]
	if _, err := c.DeleteRule(first); err != nil {
		t.Fatal(err)
	}
	live = live[1:]
	checkAgainstOracle(t, "first deleted", name, c, live, headers)

	if _, err := c.InsertRule(first); err != nil {
		t.Fatal(err)
	}
	live = append(live, first) // now the last installed of its priority
	checkAgainstOracle(t, "first reinserted", name, c, live, headers)

	hop := "linear"
	if name == hop {
		hop = "hypercuts"
	}
	if err := c.SelectEngine(hop); err != nil {
		t.Fatal(err)
	}
	if err := c.SelectEngine(name); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "rebuilt", name, c, live, headers)
}

// TestDecodeUpdateInputShapes pins the mutation decoder's normalisation:
// short inputs decode to nothing, caps hold, priorities are unique, and the
// decode is deterministic.
func TestDecodeUpdateInputShapes(t *testing.T) {
	for _, data := range [][]byte{nil, {1}, {1, 2}, {1, 2, 3}} {
		init, ops, headers := decodeUpdateInput(data)
		if len(init) != 0 || len(ops) != 0 || len(headers) != 0 {
			t.Errorf("decode(%v) yielded %d/%d/%d, want nothing", data, len(init), len(ops), len(headers))
		}
	}
	data := make([]byte, 3+maxFuzzInitRules*fuzzRuleBytes+maxFuzzOpHeaders*fuzzHdrBytes+maxFuzzOps*(fuzzOpBytes+fuzzRuleBytes))
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	data[0], data[1], data[2] = 255, 255, 255
	init, ops, headers := decodeUpdateInput(data)
	if len(init) == 0 || len(ops) == 0 || len(headers) == 0 {
		t.Fatal("full-length input decoded to an empty workload")
	}
	// Beyond the decoded probe headers, every extended-dimension rule (initial
	// or inserted) contributes one engineered probe.
	if len(init) > maxFuzzInitRules || len(ops) > maxFuzzOps ||
		len(headers) > maxFuzzOpHeaders+maxFuzzInitRules+maxFuzzOps {
		t.Fatalf("decode exceeded caps: %d/%d/%d", len(init), len(ops), len(headers))
	}
	seen := map[int]bool{}
	for _, r := range init {
		if seen[r.Priority] {
			t.Fatalf("duplicate decoded priority %d", r.Priority)
		}
		seen[r.Priority] = true
	}
	for _, op := range ops {
		if op.kind <= 1 {
			if seen[op.rule.Priority] {
				t.Fatalf("duplicate decoded priority %d", op.rule.Priority)
			}
			seen[op.rule.Priority] = true
		}
	}
}
