package sdnpc

import (
	"errors"
	"fmt"
	"testing"

	"sdnpc/internal/bench"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// wildRule is a dual-family wildcard rule: every dimension open, so it
// matches any header of either address family.
func wildRule(prio int, action fivetuple.Action, arg uint32) fivetuple.Rule {
	return fivetuple.Rule{
		SrcPort:   fivetuple.WildcardPortRange(),
		DstPort:   fivetuple.WildcardPortRange(),
		Priority:  prio,
		Action:    action,
		ActionArg: arg,
	}
}

// dimWorkloads returns one rule set per extension dimension (plus a mixed
// one), each small enough to reason about by hand and each exercising the
// dimension's corner cases: straddling /65 IPv6 prefixes, partial VLAN
// masks, flag value/mask splits, partial protocol masks, stacked
// non-terminating observers.
func dimWorkloads() map[string][]fivetuple.Rule {
	ipv6 := []fivetuple.Rule{}
	r := wildRule(0, fivetuple.ActionForward, 1)
	r.Src6 = fivetuple.MustParsePrefix6("2001:db8::/32")
	ipv6 = append(ipv6, r)
	r = wildRule(1, fivetuple.ActionForward, 2)
	r.Src6 = fivetuple.MustParsePrefix6("2001:db8:0:0:8000::/65") // straddles the Hi/Lo word split
	ipv6 = append(ipv6, r)
	r = wildRule(2, fivetuple.ActionForward, 3)
	r.Src6 = fivetuple.MustParsePrefix6("2001:db8::1/128")
	r.Dst6 = fivetuple.MustParsePrefix6("2001:db8:ffff::/48")
	ipv6 = append(ipv6, r)
	ipv6 = append(ipv6, wildRule(3, fivetuple.ActionDrop, 0))

	vlan := []fivetuple.Rule{}
	r = wildRule(0, fivetuple.ActionForward, 1)
	r.VLAN = fivetuple.ExactVLAN(100)
	vlan = append(vlan, r)
	r = wildRule(1, fivetuple.ActionForward, 2)
	r.VLAN = fivetuple.VLANMatch{Value: 0x0F0, Mask: 0x0F0}
	vlan = append(vlan, r)
	vlan = append(vlan, wildRule(2, fivetuple.ActionDrop, 0))

	flags := []fivetuple.Rule{}
	r = wildRule(0, fivetuple.ActionForward, 1)
	r.TCPFlags = fivetuple.TCPFlagMatch{Value: fivetuple.TCPSyn, Mask: fivetuple.TCPSyn | fivetuple.TCPAck}
	flags = append(flags, r)
	r = wildRule(1, fivetuple.ActionForward, 2)
	r.TCPFlags = fivetuple.TCPFlagMatch{Value: 0, Mask: fivetuple.TCPRst}
	flags = append(flags, r)
	flags = append(flags, wildRule(2, fivetuple.ActionDrop, 0))

	masked := []fivetuple.Rule{}
	r = wildRule(0, fivetuple.ActionForward, 1)
	r.Protocol = fivetuple.ProtocolMatch{Value: 0x01, Mask: 0x01} // odd protocol numbers
	masked = append(masked, r)
	masked = append(masked, wildRule(1, fivetuple.ActionDrop, 0))

	multi := []fivetuple.Rule{}
	r = wildRule(0, fivetuple.ActionController, 0)
	r.NonTerminating = true
	multi = append(multi, r)
	r = wildRule(1, fivetuple.ActionModify, 7)
	r.SrcPrefix = fivetuple.MustParsePrefix("10.0.0.0/8")
	r.NonTerminating = true
	multi = append(multi, r)
	multi = append(multi, wildRule(2, fivetuple.ActionForward, 9))
	multi = append(multi, wildRule(3, fivetuple.ActionDrop, 0)) // dead: above rule terminates first

	mixed := []fivetuple.Rule{}
	prio := 0
	for _, workload := range [][]fivetuple.Rule{ipv6[:len(ipv6)-1], vlan[:len(vlan)-1], flags[:len(flags)-1], masked[:len(masked)-1], multi[:len(multi)-1]} {
		for _, r := range workload {
			r.Priority = prio
			prio++
			mixed = append(mixed, r)
		}
	}
	mixed = append(mixed, wildRule(prio, fivetuple.ActionDrop, 0))

	return map[string][]fivetuple.Rule{
		"ipv6": ipv6, "vlan": vlan, "tcp-flags": flags,
		"masked-proto": masked, "multi-action": multi, "mixed": mixed,
	}
}

// dimProbes builds the probe headers for a workload: one engineered hit per
// rule plus fixed near-miss headers of both families.
func dimProbes(rules []fivetuple.Rule) []fivetuple.Header {
	headers := make([]fivetuple.Header, 0, len(rules)+4)
	for _, r := range rules {
		headers = append(headers, headerMatchingRule(r))
	}
	headers = append(headers,
		fivetuple.Header{SrcIP: fivetuple.MustParseIPv4("203.0.113.9"), DstIP: fivetuple.MustParseIPv4("198.51.100.2"), SrcPort: 50000, DstPort: 443, Protocol: 6},
		fivetuple.Header{Family: fivetuple.FamilyIPv6, SrcIP6: fivetuple.MustParseIPv6("2001:dead::1"), DstIP6: fivetuple.MustParseIPv6("2001:db8:ffff::9"), Protocol: 6},
		fivetuple.Header{VLAN: 0x0F5, TCPFlags: fivetuple.TCPSyn, Protocol: 6},
		fivetuple.Header{VLAN: 101, TCPFlags: fivetuple.TCPSyn | fivetuple.TCPAck, Protocol: 7},
	)
	return headers
}

// TestDimensionConformance drives every selectable engine against every
// extension-dimension workload. An engine whose registry declaration covers
// the workload's required dimensions must install it and agree with the
// linear-scan oracle under both first-match (Lookup) and multi-action
// (LookupAll) semantics; an engine that does not cover them must refuse the
// install with core.ErrDimsUnsupported — serve or honestly decline, never
// silently misclassify.
func TestDimensionConformance(t *testing.T) {
	for wname, rules := range dimWorkloads() {
		rs := fivetuple.NewRuleSet("conformance-"+wname, rules)
		need := fivetuple.RequiredDims(rs.Rules())
		if need == 0 {
			t.Fatalf("workload %q requires no extension dimensions — it tests nothing", wname)
		}
		headers := dimProbes(rs.Rules())
		for _, name := range engine.SelectableNames() {
			t.Run(fmt.Sprintf("%s/%s", wname, name), func(t *testing.T) {
				c, err := core.New(bench.EngineConfig(name))
				if err != nil {
					t.Fatalf("building %s classifier: %v", name, err)
				}
				if !engine.Dims(name).Covers(need) {
					if _, err := c.InstallRuleSet(rs); !errors.Is(err, core.ErrDimsUnsupported) {
						t.Fatalf("engine %s does not declare %v, but InstallRuleSet returned %v (want ErrDimsUnsupported)",
							name, need, err)
					}
					return
				}
				if _, err := c.InstallRuleSet(rs); err != nil {
					t.Fatalf("engine %s declares %v but refused the workload: %v", name, engine.Dims(name), err)
				}
				reader := c.Reader(0)
				var refs []core.ActionRef
				for i, h := range headers {
					wantIdx, wantOK := rs.Classify(h)
					got := c.Lookup(h)
					if got.Matched != wantOK {
						t.Fatalf("header %d (%s): matched = %v, oracle says %v", i, h, got.Matched, wantOK)
					}
					if wantOK {
						r := rs.Rule(wantIdx)
						if got.Priority != wantIdx || got.Action != r.Action || got.ActionArg != r.ActionArg {
							t.Fatalf("header %d (%s): got rule %d action %v/%d, oracle rule %d (%s)",
								i, h, got.Priority, got.Action, got.ActionArg, wantIdx, r)
						}
					}
					wantAll := rs.ClassifyAll(h)
					gotAll, _ := c.LookupAll(h)
					checkActionRefs(t, name, wname, 0, i, h, rs, wantAll, gotAll)
					refs, _ = reader.LookupAllInto(refs[:0], h)
					checkActionRefs(t, name, wname+"-reader", 0, i, h, rs, wantAll, refs)
				}
			})
		}
	}
}

// TestSelectEngineRefusesUnsupportedDims pins the run-time switching side
// of the contract: with extended rules installed, switching to an engine
// that does not declare the needed dimensions must fail with
// ErrDimsUnsupported and leave the serving path on the old engine, still
// answering correctly.
func TestSelectEngineRefusesUnsupportedDims(t *testing.T) {
	rules := dimWorkloads()["mixed"]
	rs := fivetuple.NewRuleSet("conformance-switch", rules)
	need := fivetuple.RequiredDims(rs.Rules())
	c, err := core.New(bench.EngineConfig("linear"))
	if err != nil {
		t.Fatalf("building linear classifier: %v", err)
	}
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("installing mixed workload on linear: %v", err)
	}
	headers := dimProbes(rs.Rules())
	for _, name := range engine.SelectableNames() {
		if engine.Dims(name).Covers(need) {
			continue
		}
		if err := c.SelectEngine(name); !errors.Is(err, core.ErrDimsUnsupported) {
			t.Fatalf("SelectEngine(%s) with %v rules installed returned %v (want ErrDimsUnsupported)", name, need, err)
		}
		if got := c.ActiveEngineName(); got != "linear" {
			t.Fatalf("after refused switch to %s the active engine is %q, want linear", name, got)
		}
	}
	for i, h := range headers {
		wantIdx, wantOK := rs.Classify(h)
		got := c.Lookup(h)
		if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
			t.Fatalf("after refused switches, header %d (%s): got (%v, %d), oracle (%v, %d)",
				i, h, got.Matched, got.Priority, wantOK, wantIdx)
		}
	}
}

// TestMultiActionOrderingUnderChurn pins the multi-action ordering bugfix
// through the incremental update plane: rules are inserted in inverted
// priority order (worst first) and non-terminating observers are deleted
// and reinserted through each incremental engine's delta path, asserting
// after every mutation that LookupAll still yields the chain in strict
// priority order — splices must keep the best-first order, not append.
func TestMultiActionOrderingUnderChurn(t *testing.T) {
	for _, name := range []string{"dcfl", "hypercuts", "linear"} {
		if !engine.Dims(name).Covers(fivetuple.DimMultiAction) {
			t.Fatalf("engine %s lost its multi-action declaration", name)
		}
		t.Run(name, func(t *testing.T) {
			c, err := core.New(bench.EngineConfig(name))
			if err != nil {
				t.Fatalf("building %s classifier: %v", name, err)
			}

			observerA := wildRule(0, fivetuple.ActionController, 0)
			observerA.NonTerminating = true
			observerB := wildRule(2, fivetuple.ActionModify, 7)
			observerB.NonTerminating = true
			verdict := wildRule(4, fivetuple.ActionForward, 9)
			dead := wildRule(6, fivetuple.ActionDrop, 0)
			trailing := wildRule(8, fivetuple.ActionController, 1)
			trailing.NonTerminating = true

			headers := []fivetuple.Header{
				{SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstIP: fivetuple.MustParseIPv4("192.0.2.1"), SrcPort: 1, DstPort: 2, Protocol: 6},
				{},
			}

			var live []fivetuple.Rule
			mutate := func(phase string, op func() error, apply func()) {
				t.Helper()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
				apply()
				checkAgainstOracle(t, phase, name, c, live, headers)
			}
			insert := func(phase string, r fivetuple.Rule) {
				t.Helper()
				mutate(phase, func() error { _, err := c.InsertRule(r); return err },
					func() { live = append(live, r) })
			}
			remove := func(phase string, r fivetuple.Rule) {
				t.Helper()
				mutate(phase, func() error { _, err := c.DeleteRule(r); return err },
					func() { live = removeFirstMatch(live, r) })
			}

			// Inverted priority order: every insert splices *above* the
			// rules already installed.
			insert("insert-trailing", trailing)
			insert("insert-dead", dead)
			insert("insert-verdict", verdict)
			insert("insert-observerB", observerB)
			insert("insert-observerA", observerA)

			// Delete/reinsert churn through the delta path.
			remove("delete-observerB", observerB)
			insert("reinsert-observerB", observerB)
			remove("delete-verdict", verdict) // chain now runs past priority 4 into dead
			remove("delete-observerA", observerA)
			insert("reinsert-verdict", verdict)
			insert("reinsert-observerA", observerA)

			stats := c.Report().Updates
			if stats.DeltasApplied == 0 {
				t.Fatalf("churn through %s applied no deltas — the splice path was never exercised: %+v", name, stats)
			}
			if stats.Rebuilds > 1 {
				t.Fatalf("eleven small-set publishes rebuilt %d times on %s: %+v", stats.Rebuilds, name, stats)
			}
		})
	}
}
