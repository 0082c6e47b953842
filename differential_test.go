package sdnpc

import (
	"fmt"
	"runtime"
	"testing"

	"sdnpc/internal/bench"
	"sdnpc/internal/classbench"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// The differential suite: every selectable engine of both tiers, plus the
// microflow-cache-enabled serving path of each tier and one cached path forced
// onto several serving lanes, must return exactly the
// verdict of the linear-search oracle (fivetuple.RuleSet.Classify) for every
// header. FuzzDifferentialLookup explores random rule sets and headers;
// TestDifferentialEngines replays a deterministic corpus of generated sets
// and hand-built edge cases so the same property is enforced on every plain
// `go test` run, not only under -fuzz.

const (
	maxFuzzRules   = 40
	maxFuzzHeaders = 20
	fuzzRuleBytes  = 20
	fuzzHdrBytes   = 13
)

// decodeDifferentialInput deterministically maps fuzz bytes to a rule list
// and a header list. Malformed values are normalised (prefix lengths mod 33,
// inverted port ranges swapped) rather than rejected, so every input decodes
// to a valid — possibly adversarial — classification workload.
func decodeDifferentialInput(data []byte) ([]fivetuple.Rule, []fivetuple.Header) {
	if len(data) < 2 {
		return nil, nil
	}
	nRules := 1 + int(data[0])%maxFuzzRules
	nHeaders := 1 + int(data[1])%maxFuzzHeaders
	data = data[2:]

	var rules []fivetuple.Rule
	for i := 0; i < nRules && len(data) >= fuzzRuleBytes; i++ {
		rules = append(rules, decodeFuzzRule(data[:fuzzRuleBytes], i))
		data = data[fuzzRuleBytes:]
	}
	var headers []fivetuple.Header
	for i := 0; i < nHeaders && len(data) >= fuzzHdrBytes; i++ {
		headers = append(headers, decodeFuzzHeader(data[:fuzzHdrBytes]))
		data = data[fuzzHdrBytes:]
	}
	// Aim the first header at the first rule so random inputs exercise the
	// match path, not only misses.
	if len(rules) > 0 && len(headers) > 0 {
		headers[0] = headerMatchingRule(rules[0])
	}
	// Every extended-dimension rule gets one engineered header too — random
	// headers essentially never land inside a 128-bit prefix or an exact VLAN
	// tag, so without this the extended match path would go unexercised.
	for _, r := range rules {
		if r.IsExtended() {
			headers = append(headers, headerMatchingRule(r))
		}
	}
	return rules, headers
}

func fuzzU16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func fuzzU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// decodeFuzzRule maps fuzzRuleBytes bytes to one normalised rule; arg seeds
// the action argument so rules stay distinguishable.
func decodeFuzzRule(b []byte, arg int) fivetuple.Rule {
	spLo, spHi := fuzzU16(b[10:]), fuzzU16(b[12:])
	if spLo > spHi {
		spLo, spHi = spHi, spLo
	}
	dpLo, dpHi := fuzzU16(b[14:]), fuzzU16(b[16:])
	if dpLo > dpHi {
		dpLo, dpHi = dpHi, dpLo
	}
	r := fivetuple.Rule{
		SrcPrefix: fivetuple.Prefix{Addr: fivetuple.IPv4(fuzzU32(b[0:])), Len: b[4] % 33}.Canonical(),
		DstPrefix: fivetuple.Prefix{Addr: fivetuple.IPv4(fuzzU32(b[5:])), Len: b[9] % 33}.Canonical(),
		SrcPort:   fivetuple.PortRange{Lo: spLo, Hi: spHi},
		DstPort:   fivetuple.PortRange{Lo: dpLo, Hi: dpHi},
		Protocol:  fivetuple.ExactProtocol(b[18]),
		Action:    fivetuple.ActionForward,
		ActionArg: uint32(arg),
	}
	if b[19]&1 == 1 {
		r.Protocol = fivetuple.WildcardProtocol()
	}
	// The remaining bits of b[19] switch on extension dimensions, reusing
	// earlier bytes as entropy so the decode stays deterministic. Paths that
	// cannot serve the resulting dimension set are skipped by the runner
	// (differentialPaths gates on the registry-declared engine dims).
	if b[19]&2 != 0 {
		r.Src6 = fivetuple.Prefix6{
			Addr: fivetuple.IPv6{Hi: 0x20010db8<<32 | uint64(fuzzU32(b[0:])), Lo: uint64(fuzzU32(b[5:])) << 32},
			Len:  16 + b[4]%113,
		}.Canonical()
		r.Dst6 = fivetuple.Prefix6{
			Addr: fivetuple.IPv6{Hi: 0x20010db8<<32 | uint64(fuzzU32(b[5:])), Lo: uint64(fuzzU32(b[0:])) << 32},
			Len:  16 + b[9]%113,
		}.Canonical()
		// A rule constrains one family: going IPv6 clears the v4 prefixes.
		r.SrcPrefix, r.DstPrefix = fivetuple.Prefix{}, fivetuple.Prefix{}
	}
	if b[19]&4 != 0 {
		r.VLAN = fivetuple.ExactVLAN(1 + fuzzU16(b[10:])%fivetuple.MaxVLAN)
	}
	if b[19]&8 != 0 {
		r.TCPFlags = fivetuple.TCPFlagMatch{Value: b[5], Mask: b[9] | 1}
	}
	if b[19]&16 != 0 {
		r.NonTerminating = true
	}
	return r
}

// headerMatchingRule engineers a header that the rule matches, family-aware:
// it sits at the rule's prefix base addresses, its port/protocol extremes and
// the rule's exact VLAN/flag bits.
func headerMatchingRule(r fivetuple.Rule) fivetuple.Header {
	h := fivetuple.Header{
		SrcPort:  r.SrcPort.Lo,
		DstPort:  r.DstPort.Hi,
		Protocol: r.Protocol.Value & r.Protocol.Mask,
		VLAN:     r.VLAN.Value & r.VLAN.Mask,
		TCPFlags: r.TCPFlags.Value & r.TCPFlags.Mask,
	}
	if !r.Src6.IsWildcard() || !r.Dst6.IsWildcard() {
		h.Family = fivetuple.FamilyIPv6
		h.SrcIP6 = r.Src6.Canonical().Addr
		h.DstIP6 = r.Dst6.Canonical().Addr
	} else {
		h.SrcIP = r.SrcPrefix.Addr
		h.DstIP = r.DstPrefix.Addr
	}
	return h
}

// decodeFuzzHeader maps fuzzHdrBytes bytes to one header.
func decodeFuzzHeader(b []byte) fivetuple.Header {
	return fivetuple.Header{
		SrcIP:    fivetuple.IPv4(fuzzU32(b[0:])),
		DstIP:    fivetuple.IPv4(fuzzU32(b[4:])),
		SrcPort:  fuzzU16(b[8:]),
		DstPort:  fuzzU16(b[10:]),
		Protocol: b[12],
	}
}

// multiLanes is the lane count of the multi-lane differential path: more
// lanes than the two passes pin readers to, so the anonymous Lookup path also
// reaches a lane no pinned reader warmed.
const multiLanes = 3

// newWithLanes builds a classifier with exactly n serving lanes, or the
// host's own count when n is 0. The lane count is read from GOMAXPROCS once,
// inside core.New, so it is forced for the build alone.
func newWithLanes(n int, cfg core.Config) (*core.Classifier, error) {
	if n > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	return core.New(cfg)
}

// differentialPaths builds one classifier per selectable engine of both
// tiers plus one cache-enabled classifier per tier, with the rule set
// installed — and, on top, one cached classifier forced onto multiLanes
// serving lanes, whose lane-private caches must stay bit-identical to the
// uncached classifier.
func differentialPaths(t testing.TB, rs *fivetuple.RuleSet) map[string]*core.Classifier {
	t.Helper()
	// Paths whose engine does not declare the workload's required dimensions
	// are skipped: the core would (correctly) refuse the install. At least the
	// linear engine declares every dimension, so no workload runs path-less.
	need := fivetuple.RequiredDims(rs.Rules())
	covers := func(name string) bool { return engine.Dims(name).Covers(need) }
	paths := make(map[string]*core.Classifier)
	build := func(label string, lanes int, cfg core.Config) {
		c, err := newWithLanes(lanes, cfg)
		if err != nil {
			t.Fatalf("building %s classifier: %v", label, err)
		}
		if _, err := c.InstallRuleSet(rs); err != nil {
			t.Fatalf("installing %d rules on %s: %v", rs.Len(), label, err)
		}
		paths[label] = c
	}
	for _, name := range engine.SelectableNames() {
		if covers(name) {
			build(name, 0, bench.EngineConfig(name))
		}
	}
	// The cache front must be transparent over both tiers; the second lookup
	// pass below is served from the cache.
	if covers("mbt") {
		build("mbt+cache", 0, bench.CachedEngineConfig("mbt", 4, 4096))
	}
	if covers("hypercuts") {
		build("hypercuts+cache", 0, bench.CachedEngineConfig("hypercuts", 4, 4096))
	}
	// Multi-lane cached path, on the richest engine covering the workload
	// (the linear engine declares every dimension): the two passes below pin
	// their readers to different lanes and the anonymous lookups rotate over
	// all of them, so every lane-private cache is filled and hit.
	for _, name := range []string{"hypercuts", "linear"} {
		if covers(name) {
			build(fmt.Sprintf("%s+cache/%d-lanes", name, multiLanes), multiLanes, bench.CachedEngineConfig(name, 4, 4096))
			break
		}
	}
	return paths
}

// runDifferential asserts that every path agrees with the linear oracle on
// every header — match flag, rule priority, action and action argument — on
// a cold pass and on a warm (cache-hitting) pass. Besides the anonymous
// Lookup path (which draws a lane per call), each pass also serves every
// header through a worker-pinned Reader — a different lane per pass on the
// multi-lane path — so lane selection by worker id is certified against the
// oracle too.
func runDifferential(t testing.TB, rules []fivetuple.Rule, headers []fivetuple.Header) {
	t.Helper()
	rs := fivetuple.NewRuleSet("differential", rules)
	paths := differentialPaths(t, rs)
	var refs []core.ActionRef
	for label, c := range paths {
		for pass := 0; pass < 2; pass++ {
			reader := c.Reader(pass)
			for i, h := range headers {
				wantIdx, wantOK := rs.Classify(h)
				got := c.Lookup(h)
				gotReader := reader.Lookup(h)
				for _, res := range []struct {
					path string
					got  core.Result
				}{{"lookup", got}, {"reader", gotReader}} {
					if res.got.Matched != wantOK {
						t.Fatalf("%s %s pass %d header %d (%s): matched = %v, oracle says %v",
							label, res.path, pass, i, h, res.got.Matched, wantOK)
					}
					if !wantOK {
						continue
					}
					want := rs.Rule(wantIdx)
					if res.got.Priority != wantIdx || res.got.Action != want.Action || res.got.ActionArg != want.ActionArg {
						t.Fatalf("%s %s pass %d header %d (%s): got priority %d action %v/%d, oracle rule %d (%s) action %v/%d",
							label, res.path, pass, i, h, res.got.Priority, res.got.Action, res.got.ActionArg,
							wantIdx, want, want.Action, want.ActionArg)
					}
				}

				// Multi-action semantics: the full ordered action list must
				// equal the ClassifyAll reference, on the anonymous path and
				// the worker-pinned reader alike, and refs[0] must agree with
				// the first-match verdict above.
				wantAll := rs.ClassifyAll(h)
				refs, _ = reader.LookupAllInto(refs, h)
				checkActionRefs(t, label, "reader-all", pass, i, h, rs, wantAll, refs)
				gotAll, _ := c.LookupAll(h)
				checkActionRefs(t, label, "lookup-all", pass, i, h, rs, wantAll, gotAll)
				if wantOK && len(gotAll) > 0 && gotAll[0].Priority != wantIdx {
					t.Fatalf("%s pass %d header %d (%s): LookupAll[0] priority %d disagrees with Lookup priority %d",
						label, pass, i, h, gotAll[0].Priority, wantIdx)
				}
			}
		}
	}
}

// checkActionRefs asserts one multi-action result list equals the ClassifyAll
// oracle's index list entry by entry: rule identity (priority), action, action
// argument and terminality, in strict priority order.
func checkActionRefs(t testing.TB, label, path string, pass, hdr int, h fivetuple.Header, rs *fivetuple.RuleSet, want []int, got []core.ActionRef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %s pass %d header %d (%s): %d action refs, oracle says %d (%v vs %v)",
			label, path, pass, hdr, h, len(got), len(want), got, want)
	}
	for j, idx := range want {
		r := rs.Rule(idx)
		ref := got[j]
		if ref.Priority != idx || ref.Action != r.Action || ref.ActionArg != r.ActionArg || ref.Terminal == r.NonTerminating {
			t.Fatalf("%s %s pass %d header %d (%s): action ref %d = %+v, oracle rule %d (%s)",
				label, path, pass, hdr, h, j, ref, idx, r)
		}
	}
}

// FuzzDifferentialLookup drives random rule sets and headers through all
// seven engines, both cache-enabled paths and the multi-lane cached path,
// asserting byte-identical
// verdicts versus the linear oracle. CI runs it as a smoke pass
// (-fuzz=FuzzDifferentialLookup -fuzztime=30s); the corpus below seeds
// structurally interesting shapes.
func FuzzDifferentialLookup(f *testing.F) {
	// Seeds: a tiny one-rule workload, port-boundary patterns, wide prefixes
	// with duplicates, and a spread of random-looking bytes.
	f.Add([]byte{0, 0,
		10, 0, 0, 1, 32, 192, 168, 0, 1, 24, 0, 0, 255, 255, 0, 80, 0, 80, 6, 0,
		10, 0, 0, 1, 192, 168, 0, 99, 1, 1, 0, 80, 6})
	f.Add([]byte{3, 4,
		1, 2, 3, 4, 16, 5, 6, 7, 8, 0, 255, 255, 255, 255, 0, 0, 0, 0, 17, 1,
		1, 2, 3, 4, 16, 5, 6, 7, 8, 0, 255, 255, 255, 255, 0, 0, 0, 0, 17, 1,
		9, 9, 9, 9, 8, 7, 7, 7, 7, 33, 0, 1, 255, 254, 128, 0, 255, 255, 6, 0,
		1, 2, 200, 4, 5, 6, 7, 8, 255, 255, 255, 255, 17,
		9, 9, 1, 1, 7, 7, 2, 2, 0, 0, 65, 66, 6})
	f.Add([]byte{255, 255, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109,
		110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 121,
		130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140})
	// Extension-dimension seeds: b[19] bits switch on IPv6 prefixes +
	// non-terminating (18 = 2|16) and VLAN + TCP flags + non-terminating
	// (28 = 4|8|16), steering the smoke pass through the extended decode
	// paths and the dims-gated engine selection.
	f.Add([]byte{1, 0,
		10, 0, 0, 1, 32, 192, 168, 0, 1, 24, 0, 0, 255, 255, 0, 80, 0, 80, 6, 18,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		10, 0, 0, 1, 192, 168, 0, 99, 1, 1, 0, 80, 6})
	f.Add([]byte{0, 0,
		1, 2, 3, 4, 16, 5, 6, 7, 8, 0, 255, 255, 255, 255, 0, 0, 0, 0, 6, 28,
		1, 2, 3, 4, 5, 6, 7, 8, 255, 255, 255, 255, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, headers := decodeDifferentialInput(data)
		if len(rules) == 0 || len(headers) == 0 {
			t.Skip("input too short to decode a workload")
		}
		runDifferential(t, rules, headers)
	})
}

// TestDifferentialEngines is the seeded deterministic corpus runner: the
// differential property is checked on generated ClassBench-style sets and on
// hand-built edge cases (max-port boundaries, duplicate rules, wildcard
// stacks, adjacent prefixes) on every test run.
func TestDifferentialEngines(t *testing.T) {
	t.Run("generated", func(t *testing.T) {
		for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
			t.Run(class.String(), func(t *testing.T) {
				rs := classbench.Generate(classbench.Config{Class: class, Rules: 150, Seed: int64(class) * 31})
				trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
					Packets: 300, Seed: int64(class) * 17, MatchFraction: 0.85, Locality: 0.3,
				})
				runDifferential(t, rs.Rules(), trace)
			})
		}
	})

	// Generated extended-dimension workload: IPv6 prefixes, VLAN tags,
	// TCP-flag matches and non-terminating rules mixed into one ACL set. Only
	// dimension-covering engines are built for it (differentialPaths gates on
	// the registry), and every lookup is also checked under multi-action
	// semantics against ClassifyAll.
	t.Run("generated-extended", func(t *testing.T) {
		rs := classbench.Generate(classbench.Config{
			Class: classbench.ACL, Rules: 120, Seed: 77,
			IPv6Fraction: 0.4, VLANFraction: 0.25, TCPFlagFraction: 0.25, NonTerminatingFraction: 0.3,
		})
		trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
			Packets: 250, Seed: 78, MatchFraction: 0.9,
		})
		runDifferential(t, rs.Rules(), trace)
	})

	prefix := fivetuple.MustParsePrefix
	exact := fivetuple.ExactPort
	ports := func(lo, hi uint16) fivetuple.PortRange { return fivetuple.PortRange{Lo: lo, Hi: hi} }
	wildPorts := fivetuple.WildcardPortRange()
	rule := func(src, dst string, sp, dp fivetuple.PortRange, proto fivetuple.ProtocolMatch, arg uint32) fivetuple.Rule {
		return fivetuple.Rule{
			SrcPrefix: prefix(src), DstPrefix: prefix(dst),
			SrcPort: sp, DstPort: dp, Protocol: proto,
			Action: fivetuple.ActionForward, ActionArg: arg,
		}
	}
	tcp := fivetuple.ExactProtocol(fivetuple.ProtoTCP)
	wild := fivetuple.WildcardProtocol()

	edgeCases := []struct {
		name    string
		rules   []fivetuple.Rule
		headers []fivetuple.Header
	}{
		{
			name: "max-port-boundaries",
			rules: []fivetuple.Rule{
				rule("0.0.0.0/0", "0.0.0.0/0", wildPorts, exact(65535), tcp, 0),
				rule("0.0.0.0/0", "0.0.0.0/0", wildPorts, ports(65534, 65535), tcp, 1),
				rule("0.0.0.0/0", "0.0.0.0/0", wildPorts, exact(0), tcp, 2),
				rule("0.0.0.0/0", "0.0.0.0/0", ports(0, 0), wildPorts, wild, 3),
			},
			headers: []fivetuple.Header{
				{DstPort: 65535, Protocol: fivetuple.ProtoTCP},
				{DstPort: 65534, Protocol: fivetuple.ProtoTCP},
				{DstPort: 0, Protocol: fivetuple.ProtoTCP},
				{SrcPort: 65535, DstPort: 1, Protocol: fivetuple.ProtoUDP},
				{SrcPort: 0, DstPort: 9, Protocol: fivetuple.ProtoGRE},
			},
		},
		{
			name: "duplicate-rules-distinct-priorities",
			rules: []fivetuple.Rule{
				rule("10.0.0.0/8", "0.0.0.0/0", wildPorts, exact(80), tcp, 0),
				rule("10.0.0.0/8", "0.0.0.0/0", wildPorts, exact(80), tcp, 1),
				rule("10.0.0.0/8", "0.0.0.0/0", wildPorts, exact(80), tcp, 2),
				rule("0.0.0.0/0", "0.0.0.0/0", wildPorts, wildPorts, wild, 3),
			},
			headers: []fivetuple.Header{
				{SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstPort: 80, Protocol: fivetuple.ProtoTCP},
				{SrcIP: fivetuple.MustParseIPv4("11.1.2.3"), DstPort: 80, Protocol: fivetuple.ProtoTCP},
			},
		},
		{
			name: "adjacent-prefix-boundaries",
			rules: []fivetuple.Rule{
				rule("255.255.255.255/32", "0.0.0.0/0", wildPorts, wildPorts, wild, 0),
				rule("255.255.255.254/31", "0.0.0.0/0", wildPorts, wildPorts, wild, 1),
				rule("128.0.0.0/1", "0.0.0.0/0", wildPorts, wildPorts, wild, 2),
				rule("0.0.0.0/32", "0.0.0.0/0", wildPorts, wildPorts, wild, 3),
				rule("10.0.255.255/32", "10.1.0.0/16", wildPorts, wildPorts, wild, 4),
			},
			headers: []fivetuple.Header{
				{SrcIP: fivetuple.MustParseIPv4("255.255.255.255"), Protocol: fivetuple.ProtoTCP},
				{SrcIP: fivetuple.MustParseIPv4("255.255.255.254"), Protocol: fivetuple.ProtoTCP},
				{SrcIP: fivetuple.MustParseIPv4("128.0.0.0"), Protocol: fivetuple.ProtoUDP},
				{SrcIP: 0, Protocol: fivetuple.ProtoUDP},
				{SrcIP: fivetuple.MustParseIPv4("10.0.255.255"), DstIP: fivetuple.MustParseIPv4("10.1.2.3")},
			},
		},
		{
			name: "protocol-zero-vs-wildcard",
			rules: []fivetuple.Rule{
				rule("0.0.0.0/0", "0.0.0.0/0", wildPorts, wildPorts, fivetuple.ExactProtocol(0), 0),
				rule("0.0.0.0/0", "0.0.0.0/0", wildPorts, wildPorts, wild, 1),
			},
			headers: []fivetuple.Header{
				{Protocol: 0},
				{Protocol: 255},
				{Protocol: fivetuple.ProtoTCP},
			},
		},
		{
			name: "single-wildcard-rule",
			rules: []fivetuple.Rule{
				rule("0.0.0.0/0", "0.0.0.0/0", wildPorts, wildPorts, wild, 0),
			},
			headers: []fivetuple.Header{
				{},
				{SrcIP: ^fivetuple.IPv4(0), DstIP: ^fivetuple.IPv4(0), SrcPort: 65535, DstPort: 65535, Protocol: 255},
			},
		},
	}
	for _, tc := range edgeCases {
		t.Run(tc.name, func(t *testing.T) {
			runDifferential(t, tc.rules, tc.headers)
		})
	}

	// Extended-dimension edge cases: hand-built IPv6 boundary prefixes, VLAN
	// and TCP-flag masks, dual-family wildcards, and multi-action stacks whose
	// rule order is deliberately unsorted relative to priority.
	t.Run("extended-dimensions", func(t *testing.T) {
		prefix6 := fivetuple.MustParsePrefix6
		v6hdr := func(src, dst string, dstPort uint16) fivetuple.Header {
			return fivetuple.Header{
				Family: fivetuple.FamilyIPv6,
				SrcIP6: fivetuple.MustParseIPv6(src), DstIP6: fivetuple.MustParseIPv6(dst),
				SrcPort: 1234, DstPort: dstPort, Protocol: fivetuple.ProtoTCP,
			}
		}
		extCases := []struct {
			name    string
			rules   []fivetuple.Rule
			headers []fivetuple.Header
		}{
			{
				name: "ipv6-adjacent-prefixes",
				rules: []fivetuple.Rule{
					{Src6: prefix6("2001:db8::/128"), SrcPort: wildPorts, DstPort: wildPorts, Protocol: wild, Action: fivetuple.ActionForward, ActionArg: 0},
					{Src6: prefix6("2001:db8::/64"), SrcPort: wildPorts, DstPort: wildPorts, Protocol: wild, Action: fivetuple.ActionForward, ActionArg: 1},
					{Src6: prefix6("2001:db8::/32"), Dst6: prefix6("2001:db8:ff::/48"), SrcPort: wildPorts, DstPort: wildPorts, Protocol: wild, Action: fivetuple.ActionForward, ActionArg: 2},
					// The /65 straddles the Hi/Lo word split of the address
					// representation.
					{Src6: prefix6("2001:db8:0:0:8000::/65"), SrcPort: wildPorts, DstPort: wildPorts, Protocol: wild, Action: fivetuple.ActionForward, ActionArg: 3},
					// Dual-family wildcard default: matches v4 and v6 headers.
					rule("0.0.0.0/0", "0.0.0.0/0", wildPorts, wildPorts, wild, 4),
				},
				headers: []fivetuple.Header{
					v6hdr("2001:db8::", "2001:db8:ff::1", 80),
					v6hdr("2001:db8::1", "::1", 80),
					v6hdr("2001:db8:0:0:8000::1", "::1", 80),
					v6hdr("2001:db8:0:0:7fff:ffff:ffff:ffff", "::1", 80),
					v6hdr("2001:db9::1", "::1", 80),
					{SrcIP: fivetuple.MustParseIPv4("10.0.0.1"), Protocol: fivetuple.ProtoTCP},
				},
			},
			{
				name: "vlan-and-flag-masks",
				rules: []fivetuple.Rule{
					{SrcPort: wildPorts, DstPort: wildPorts, Protocol: tcp, VLAN: fivetuple.ExactVLAN(100), Action: fivetuple.ActionForward, ActionArg: 0},
					{SrcPort: wildPorts, DstPort: wildPorts, Protocol: tcp, TCPFlags: fivetuple.TCPFlagMatch{Value: fivetuple.TCPSyn, Mask: fivetuple.TCPSyn | fivetuple.TCPAck}, Action: fivetuple.ActionForward, ActionArg: 1},
					{SrcPort: wildPorts, DstPort: wildPorts, Protocol: tcp, VLAN: fivetuple.VLANMatch{Value: 0x0F0, Mask: 0x0F0}, Action: fivetuple.ActionForward, ActionArg: 2},
					rule("0.0.0.0/0", "0.0.0.0/0", wildPorts, wildPorts, wild, 3),
				},
				headers: []fivetuple.Header{
					{Protocol: fivetuple.ProtoTCP, VLAN: 100, TCPFlags: fivetuple.TCPSyn},
					{Protocol: fivetuple.ProtoTCP, VLAN: 0x0F7, TCPFlags: fivetuple.TCPSyn | fivetuple.TCPAck},
					{Protocol: fivetuple.ProtoTCP, VLAN: 0, TCPFlags: fivetuple.TCPSyn},
					{Protocol: fivetuple.ProtoTCP, VLAN: 101, TCPFlags: fivetuple.TCPAck},
					{Protocol: fivetuple.ProtoUDP},
				},
			},
			{
				name: "multi-action-stack",
				rules: []fivetuple.Rule{
					// Mirror-then-forward: two non-terminating observers above
					// a terminating verdict, with a dead rule below it.
					{SrcPrefix: prefix("10.0.0.0/8"), SrcPort: wildPorts, DstPort: wildPorts, Protocol: wild, NonTerminating: true, Action: fivetuple.ActionController, ActionArg: 0},
					{SrcPrefix: prefix("10.0.0.0/8"), SrcPort: wildPorts, DstPort: fivetuple.PortRange{Lo: 80, Hi: 80}, Protocol: wild, NonTerminating: true, Action: fivetuple.ActionModify, ActionArg: 7},
					rule("10.0.0.0/8", "0.0.0.0/0", wildPorts, wildPorts, wild, 9),
					rule("10.0.0.0/8", "0.0.0.0/0", wildPorts, wildPorts, wild, 10),
					{SrcPort: wildPorts, DstPort: wildPorts, Protocol: wild, NonTerminating: true, Action: fivetuple.ActionController, ActionArg: 99},
				},
				headers: []fivetuple.Header{
					{SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstPort: 80, Protocol: fivetuple.ProtoTCP},
					{SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstPort: 81, Protocol: fivetuple.ProtoTCP},
					// Matches only the trailing non-terminating observer: the
					// action list is non-empty while the first-match verdict
					// reports its (non-terminal) action.
					{SrcIP: fivetuple.MustParseIPv4("11.1.2.3"), DstPort: 80, Protocol: fivetuple.ProtoTCP},
				},
			},
		}
		for _, tc := range extCases {
			t.Run(tc.name, func(t *testing.T) {
				runDifferential(t, tc.rules, tc.headers)
			})
		}
	})

	// Fuzz-decoder determinism: the corpus runner also pushes the seed
	// inputs through the byte decoder so the fuzz entry point itself is
	// covered without -fuzz.
	t.Run("decoded-seeds", func(t *testing.T) {
		seeds := [][]byte{
			{0, 0, 10, 0, 0, 1, 32, 192, 168, 0, 1, 24, 0, 0, 255, 255, 0, 80, 0, 80, 6, 0,
				10, 0, 0, 1, 192, 168, 0, 99, 1, 1, 0, 80, 6},
			{255, 255, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109,
				110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 121,
				130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140},
		}
		for i, seed := range seeds {
			rules, headers := decodeDifferentialInput(seed)
			if len(rules) == 0 || len(headers) == 0 {
				t.Fatalf("seed %d does not decode to a workload", i)
			}
			runDifferential(t, rules, headers)
		}
	})
}

// TestDecodeDifferentialInputShapes pins the decoder's normalisation: port
// ranges come out ordered, prefix lengths in range, and short inputs yield
// nothing rather than panicking.
func TestDecodeDifferentialInputShapes(t *testing.T) {
	for _, data := range [][]byte{nil, {1}, {1, 1}, {1, 1, 9, 9}} {
		rules, headers := decodeDifferentialInput(data)
		if len(rules) != 0 || len(headers) != 0 {
			t.Errorf("decode(%v) = %d rules / %d headers, want none", data, len(rules), len(headers))
		}
	}
	data := make([]byte, 2+maxFuzzRules*fuzzRuleBytes+maxFuzzHeaders*fuzzHdrBytes)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	data[0], data[1] = 255, 255 // ask for the maxima
	rules, headers := decodeDifferentialInput(data)
	if len(rules) == 0 || len(headers) == 0 {
		t.Fatal("full-length input decoded to an empty workload")
	}
	// Beyond the decoded headers, every extended-dimension rule contributes
	// one engineered header, so the header bound is the sum of both caps.
	if len(rules) > maxFuzzRules || len(headers) > maxFuzzHeaders+maxFuzzRules {
		t.Fatalf("decode exceeded caps: %d rules / %d headers", len(rules), len(headers))
	}
	for i, r := range rules {
		if r.SrcPort.Lo > r.SrcPort.Hi || r.DstPort.Lo > r.DstPort.Hi {
			t.Errorf("rule %d has an inverted port range: %s", i, r)
		}
		if r.SrcPrefix.Len > 32 || r.DstPrefix.Len > 32 {
			t.Errorf("rule %d has an out-of-range prefix length: %s", i, r)
		}
	}
	if fmt.Sprint(rules) != fmt.Sprint(func() []fivetuple.Rule { r, _ := decodeDifferentialInput(data); return r }()) {
		t.Error("decoder is not deterministic")
	}
}
