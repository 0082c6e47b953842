package fivetuple

import (
	"bytes"
	"strings"
	"testing"
)

// sampleRules builds a small hand-written filter set exercising all match
// syntaxes: prefixes of several lengths, exact ports, ranges, wildcards and
// exact/wildcard protocols.
func sampleRules() []Rule {
	return []Rule{
		{
			SrcPrefix: MustParsePrefix("10.0.0.0/8"),
			DstPrefix: MustParsePrefix("192.168.1.0/24"),
			SrcPort:   WildcardPortRange(),
			DstPort:   ExactPort(80),
			Protocol:  ExactProtocol(ProtoTCP),
			Action:    ActionForward,
		},
		{
			SrcPrefix: MustParsePrefix("10.0.0.0/8"),
			DstPrefix: MustParsePrefix("192.168.0.0/16"),
			SrcPort:   WildcardPortRange(),
			DstPort:   PortRange{Lo: 1024, Hi: 2048},
			Protocol:  ExactProtocol(ProtoUDP),
			Action:    ActionModify,
		},
		{
			SrcPrefix: MustParsePrefix("172.16.5.4/32"),
			DstPrefix: MustParsePrefix("0.0.0.0/0"),
			SrcPort:   ExactPort(53),
			DstPort:   ExactPort(53),
			Protocol:  ExactProtocol(ProtoUDP),
			Action:    ActionDrop,
		},
		{
			SrcPrefix: MustParsePrefix("0.0.0.0/0"),
			DstPrefix: MustParsePrefix("192.168.1.0/24"),
			SrcPort:   WildcardPortRange(),
			DstPort:   ExactPort(443),
			Protocol:  ExactProtocol(ProtoTCP),
			Action:    ActionForward,
		},
		Wildcard(4, ActionDrop),
	}
}

func TestRuleMatches(t *testing.T) {
	rules := sampleRules()
	tests := []struct {
		name string
		rule int
		h    Header
		want bool
	}{
		{
			name: "web rule hits",
			rule: 0,
			h:    Header{SrcIP: MustParseIPv4("10.1.2.3"), DstIP: MustParseIPv4("192.168.1.9"), SrcPort: 31000, DstPort: 80, Protocol: ProtoTCP},
			want: true,
		},
		{
			name: "web rule misses wrong protocol",
			rule: 0,
			h:    Header{SrcIP: MustParseIPv4("10.1.2.3"), DstIP: MustParseIPv4("192.168.1.9"), SrcPort: 31000, DstPort: 80, Protocol: ProtoUDP},
			want: false,
		},
		{
			name: "web rule misses wrong dst port",
			rule: 0,
			h:    Header{SrcIP: MustParseIPv4("10.1.2.3"), DstIP: MustParseIPv4("192.168.1.9"), SrcPort: 31000, DstPort: 81, Protocol: ProtoTCP},
			want: false,
		},
		{
			name: "udp range rule hits low edge",
			rule: 1,
			h:    Header{SrcIP: MustParseIPv4("10.9.9.9"), DstIP: MustParseIPv4("192.168.200.1"), SrcPort: 5, DstPort: 1024, Protocol: ProtoUDP},
			want: true,
		},
		{
			name: "udp range rule misses below range",
			rule: 1,
			h:    Header{SrcIP: MustParseIPv4("10.9.9.9"), DstIP: MustParseIPv4("192.168.200.1"), SrcPort: 5, DstPort: 1023, Protocol: ProtoUDP},
			want: false,
		},
		{
			name: "dns rule needs exact source ip",
			rule: 2,
			h:    Header{SrcIP: MustParseIPv4("172.16.5.5"), DstIP: MustParseIPv4("8.8.8.8"), SrcPort: 53, DstPort: 53, Protocol: ProtoUDP},
			want: false,
		},
		{
			name: "default rule matches anything",
			rule: 4,
			h:    Header{SrcIP: MustParseIPv4("203.0.113.77"), DstIP: MustParseIPv4("198.51.100.1"), SrcPort: 1, DstPort: 2, Protocol: 250},
			want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := rules[tt.rule].Matches(tt.h); got != tt.want {
				t.Errorf("rule %d Matches(%s) = %v, want %v", tt.rule, tt.h, got, tt.want)
			}
		})
	}
}

func TestRuleSetClassifyReturnsHPMR(t *testing.T) {
	rs := NewRuleSet("sample", sampleRules())
	// Header matched by rule 0, rule 3 (dst 443 doesn't match) and the
	// default rule 4: the HPMR must be rule 0.
	h := Header{SrcIP: MustParseIPv4("10.1.2.3"), DstIP: MustParseIPv4("192.168.1.9"), SrcPort: 31000, DstPort: 80, Protocol: ProtoTCP}
	idx, ok := rs.Classify(h)
	if !ok || idx != 0 {
		t.Fatalf("Classify() = (%d, %v), want (0, true)", idx, ok)
	}
}

func TestRuleSetClassifyNoDefault(t *testing.T) {
	rules := sampleRules()[:4] // drop the default rule
	rs := NewRuleSet("nodefault", rules)
	h := Header{SrcIP: MustParseIPv4("203.0.113.1"), DstIP: MustParseIPv4("198.51.100.2"), SrcPort: 9, DstPort: 9, Protocol: ProtoGRE}
	if _, ok := rs.Classify(h); ok {
		t.Error("Classify() reported a match for a header no rule matches")
	}
}

func TestRuleSetInsertRemove(t *testing.T) {
	rs := NewRuleSet("sample", sampleRules())
	originalLen := rs.Len()

	newRule := Rule{
		SrcPrefix: MustParsePrefix("10.0.0.0/8"),
		DstPrefix: MustParsePrefix("192.168.1.0/24"),
		SrcPort:   WildcardPortRange(),
		DstPort:   ExactPort(80),
		Protocol:  ExactProtocol(ProtoTCP),
		Action:    ActionDrop,
	}
	rs.Insert(0, newRule)
	if rs.Len() != originalLen+1 {
		t.Fatalf("Len() after insert = %d, want %d", rs.Len(), originalLen+1)
	}
	// The new highest-priority rule shadows the old rule 0.
	h := Header{SrcIP: MustParseIPv4("10.1.2.3"), DstIP: MustParseIPv4("192.168.1.9"), SrcPort: 31000, DstPort: 80, Protocol: ProtoTCP}
	idx, ok := rs.Classify(h)
	if !ok || idx != 0 || rs.Rule(idx).Action != ActionDrop {
		t.Fatalf("after insert Classify() = (%d, %v) action %v, want rule 0 with drop", idx, ok, rs.Rule(idx).Action)
	}
	// Priorities must be contiguous after mutation.
	for i, r := range rs.Rules() {
		if r.Priority != i {
			t.Errorf("rule %d has priority %d after insert", i, r.Priority)
		}
	}

	rs.Remove(0)
	if rs.Len() != originalLen {
		t.Fatalf("Len() after remove = %d, want %d", rs.Len(), originalLen)
	}
	idx, ok = rs.Classify(h)
	if !ok || idx != 0 || rs.Rule(idx).Action != ActionForward {
		t.Fatalf("after remove Classify() = (%d, %v), want original rule 0", idx, ok)
	}
}

func TestRuleSetInsertRemovePanicOnBadIndex(t *testing.T) {
	rs := NewRuleSet("sample", sampleRules())
	assertPanics(t, "Insert(-1)", func() { rs.Insert(-1, Rule{}) })
	assertPanics(t, "Insert(too large)", func() { rs.Insert(rs.Len()+1, Rule{}) })
	assertPanics(t, "Remove(-1)", func() { rs.Remove(-1) })
	assertPanics(t, "Remove(len)", func() { rs.Remove(rs.Len()) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestUniqueFieldValues(t *testing.T) {
	rs := NewRuleSet("sample", sampleRules())
	tests := []struct {
		field Field
		want  int
	}{
		{FieldSrcIP, 3},    // 10/8, 172.16.5.4/32, wildcard
		{FieldDstIP, 3},    // 192.168.1/24, 192.168/16, wildcard
		{FieldSrcPort, 2},  // wildcard, 53
		{FieldDstPort, 5},  // 80, 1024-2048, 53, 443, wildcard
		{FieldProtocol, 3}, // tcp, udp, wildcard
	}
	for _, tt := range tests {
		t.Run(tt.field.String(), func(t *testing.T) {
			if got := rs.UniqueFieldCount(tt.field); got != tt.want {
				t.Errorf("UniqueFieldCount(%s) = %d, want %d", tt.field, got, tt.want)
			}
		})
	}
}

func TestFieldKeyCanonicalises(t *testing.T) {
	// Two prefixes with different host bits but the same network must share a
	// field key; this is what keeps label tables free of duplicates.
	a := Rule{SrcPrefix: MustParsePrefix("10.1.2.3/8")}
	b := Rule{SrcPrefix: MustParsePrefix("10.9.9.9/8")}
	if a.FieldKey(FieldSrcIP) != b.FieldKey(FieldSrcIP) {
		t.Errorf("equivalent prefixes produced different field keys: %q vs %q",
			a.FieldKey(FieldSrcIP), b.FieldKey(FieldSrcIP))
	}
	if got := (Rule{}).FieldKey(Field(42)); got != "" {
		t.Errorf("unknown field key = %q, want empty", got)
	}
}

func TestClassBenchRoundTrip(t *testing.T) {
	rs := NewRuleSet("sample", sampleRules())
	var buf bytes.Buffer
	if err := rs.WriteClassBench(&buf); err != nil {
		t.Fatalf("WriteClassBench: %v", err)
	}
	parsed, err := ParseClassBench(&buf)
	if err != nil {
		t.Fatalf("ParseClassBench: %v", err)
	}
	if parsed.Len() != rs.Len() {
		t.Fatalf("round-trip rule count = %d, want %d", parsed.Len(), rs.Len())
	}
	for i := 0; i < rs.Len(); i++ {
		a, b := rs.Rule(i), parsed.Rule(i)
		if a.SrcPrefix.Canonical() != b.SrcPrefix.Canonical() ||
			a.DstPrefix.Canonical() != b.DstPrefix.Canonical() ||
			a.SrcPort != b.SrcPort || a.DstPort != b.DstPort ||
			a.Protocol != b.Protocol {
			t.Errorf("rule %d did not round-trip:\n  wrote %s\n  read  %s", i, a, b)
		}
	}
}

func TestParseClassBenchRejectsMalformedInput(t *testing.T) {
	tests := []struct {
		name string
		line string
	}{
		{name: "missing @", line: "10.0.0.0/8 10.0.0.0/8 0 : 65535 0 : 65535 0x06/0xFF"},
		{name: "too few fields", line: "@10.0.0.0/8 10.0.0.0/8 0 : 65535"},
		{name: "bad source prefix", line: "@10.0.0/8 10.0.0.0/8 0 : 65535 0 : 65535 0x06/0xFF"},
		{name: "bad destination prefix", line: "@10.0.0.0/8 10.0.0.0/99 0 : 65535 0 : 65535 0x06/0xFF"},
		{name: "bad port separator", line: "@10.0.0.0/8 10.0.0.0/8 0 - 65535 0 : 65535 0x06/0xFF"},
		{name: "bad port value", line: "@10.0.0.0/8 10.0.0.0/8 x : 65535 0 : 65535 0x06/0xFF"},
		{name: "bad protocol", line: "@10.0.0.0/8 10.0.0.0/8 0 : 65535 0 : 65535 zz"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseClassBenchRule(tt.line); err == nil {
				t.Errorf("ParseClassBenchRule(%q) succeeded, want error", tt.line)
			}
		})
	}
	// Parse of a whole reader reports the failing line number.
	_, err := ParseClassBench(strings.NewReader("# comment\n\n@bad\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("ParseClassBench error = %v, want line-3 failure", err)
	}
}

func TestParseClassBenchSkipsCommentsAndBlankLines(t *testing.T) {
	input := "# acl1 sample\n\n@10.0.0.0/8\t192.168.1.0/24\t0 : 65535\t80 : 80\t0x06/0xFF\n"
	rs, err := ParseClassBench(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ParseClassBench: %v", err)
	}
	if rs.Len() != 1 {
		t.Fatalf("parsed %d rules, want 1", rs.Len())
	}
	r := rs.Rule(0)
	if r.DstPort != ExactPort(80) || r.Protocol.Value != ProtoTCP {
		t.Errorf("parsed rule = %s, want dst port 80 tcp", r)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	headers := []Header{
		{SrcIP: MustParseIPv4("10.1.2.3"), DstIP: MustParseIPv4("192.168.1.9"), SrcPort: 31000, DstPort: 80, Protocol: ProtoTCP},
		{SrcIP: 0, DstIP: 0xFFFFFFFF, SrcPort: 0, DstPort: 65535, Protocol: 255},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, headers); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	parsed, err := ParseTrace(&buf)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(parsed) != len(headers) {
		t.Fatalf("round-trip header count = %d, want %d", len(parsed), len(headers))
	}
	for i := range headers {
		if parsed[i] != headers[i] {
			t.Errorf("header %d = %+v, want %+v", i, parsed[i], headers[i])
		}
	}
}

func TestParseTraceRejectsMalformedInput(t *testing.T) {
	if _, err := ParseTrace(strings.NewReader("1 2 3\n")); err == nil {
		t.Error("ParseTrace with missing fields should fail")
	}
	if _, err := ParseTrace(strings.NewReader("1 2 3 4 x\n")); err == nil {
		t.Error("ParseTrace with non-numeric field should fail")
	}
}

func TestWildcardRule(t *testing.T) {
	w := Wildcard(7, ActionDrop)
	if w.Priority != 7 || w.Action != ActionDrop {
		t.Errorf("Wildcard() = %+v", w)
	}
	headers := []Header{
		{},
		{SrcIP: 0xFFFFFFFF, DstIP: 0xFFFFFFFF, SrcPort: 65535, DstPort: 65535, Protocol: 255},
		{SrcIP: MustParseIPv4("8.8.8.8"), DstIP: MustParseIPv4("1.1.1.1"), SrcPort: 123, DstPort: 53, Protocol: ProtoUDP},
	}
	for _, h := range headers {
		if !w.Matches(h) {
			t.Errorf("wildcard rule should match %s", h)
		}
	}
}
