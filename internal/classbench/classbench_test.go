package classbench

import (
	"strings"
	"testing"

	"sdnpc/internal/fivetuple"
)

func TestRuleCountMatchesTableIII(t *testing.T) {
	tests := []struct {
		class Class
		size  Size
		want  int
	}{
		{ACL, Size1K, 916},
		{ACL, Size5K, 4415},
		{ACL, Size10K, 9603},
		{FW, Size1K, 791},
		{FW, Size5K, 4653},
		{FW, Size10K, 9311},
		{IPC, Size1K, 938},
		{IPC, Size5K, 4460},
		{IPC, Size10K, 9037},
	}
	for _, tt := range tests {
		t.Run(tt.class.String()+"-"+tt.size.String(), func(t *testing.T) {
			if got := RuleCount(tt.class, tt.size); got != tt.want {
				t.Errorf("RuleCount(%v, %v) = %d, want %d", tt.class, tt.size, got, tt.want)
			}
			rs := Generate(StandardConfig(tt.class, tt.size))
			if rs.Len() != tt.want {
				t.Errorf("generated %d rules, want %d", rs.Len(), tt.want)
			}
		})
	}
	if got := RuleCount(Class(0), Size1K); got != 0 {
		t.Errorf("RuleCount of unknown class = %d, want 0", got)
	}
}

func TestGenerateACLUniqueFieldsMatchTableII(t *testing.T) {
	for _, size := range []Size{Size1K, Size5K, Size10K} {
		t.Run(size.String(), func(t *testing.T) {
			targets, ok := UniqueFieldTargets(ACL, size)
			if !ok {
				t.Fatal("no targets for ACL")
			}
			rs := Generate(StandardConfig(ACL, size))
			for field, want := range targets {
				if got := rs.UniqueFieldCount(field); got != want {
					t.Errorf("%s unique fields = %d, want %d", field, got, want)
				}
			}
		})
	}
}

func TestUniqueFieldTargetsOnlyForACL(t *testing.T) {
	if _, ok := UniqueFieldTargets(FW, Size1K); ok {
		t.Error("UniqueFieldTargets(FW) should report ok=false")
	}
	if _, ok := UniqueFieldTargets(IPC, Size10K); ok {
		t.Error("UniqueFieldTargets(IPC) should report ok=false")
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := StandardConfig(ACL, Size1K)
	a := Generate(cfg)
	b := Generate(cfg)
	if a.Len() != b.Len() {
		t.Fatalf("rule counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Rule(i).String() != b.Rule(i).String() {
			t.Fatalf("rule %d differs between identical configs:\n  %s\n  %s", i, a.Rule(i), b.Rule(i))
		}
	}
	// A different seed must produce a different set.
	cfg2 := cfg
	cfg2.Seed++
	c := Generate(cfg2)
	same := true
	for i := 0; i < a.Len() && i < c.Len(); i++ {
		if a.Rule(i).String() != c.Rule(i).String() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical rule sets")
	}
}

func TestGenerateEndsWithDefaultRule(t *testing.T) {
	for _, class := range []Class{ACL, FW, IPC} {
		rs := Generate(StandardConfig(class, Size1K))
		last := rs.Rule(rs.Len() - 1)
		if !last.SrcPrefix.IsWildcard() || !last.DstPrefix.IsWildcard() ||
			!last.SrcPort.IsWildcard() || !last.DstPort.IsWildcard() ||
			!last.Protocol.IsWildcard() {
			t.Errorf("%s: last rule is not a wildcard default: %s", class, last)
		}
	}
}

func TestGenerateEveryRuleIsReachableByTrace(t *testing.T) {
	// Every generated header derived from a rule must match at least one rule
	// (possibly a higher-priority one), and with MatchFraction 1 the default
	// rule alone should not absorb everything.
	rs := Generate(StandardConfig(ACL, Size1K))
	trace := GenerateTrace(rs, TraceConfig{Packets: 500, Seed: 7, MatchFraction: 1})
	nonDefault := 0
	for _, h := range trace {
		idx, ok := rs.Classify(h)
		if !ok {
			t.Fatalf("header %s does not match any rule, including the default", h)
		}
		if idx != rs.Len()-1 {
			nonDefault++
		}
	}
	if nonDefault == 0 {
		t.Error("no trace header matched a non-default rule")
	}
}

func TestGenerateTraceDeterministicAndSized(t *testing.T) {
	rs := Generate(StandardConfig(FW, Size1K))
	cfg := TraceConfig{Packets: 256, Seed: 42, MatchFraction: 0.8, Locality: 0.5}
	a := GenerateTrace(rs, cfg)
	b := GenerateTrace(rs, cfg)
	if len(a) != cfg.Packets || len(b) != cfg.Packets {
		t.Fatalf("trace lengths = %d, %d, want %d", len(a), len(b), cfg.Packets)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if got := GenerateTrace(rs, TraceConfig{Packets: 0}); got != nil {
		t.Errorf("zero-packet trace = %v, want nil", got)
	}
	if got := len(GenerateTrace(rs, TraceConfig{Packets: 10, MatchFraction: 2.5})); got != 10 {
		t.Errorf("clamped match fraction trace length = %d, want 10", got)
	}
}

func TestTraceHeaderInRuleRespectsRule(t *testing.T) {
	// With MatchFraction 1 and a single-rule set, every header must match it.
	rule := fivetuple.Rule{
		SrcPrefix: fivetuple.MustParsePrefix("10.0.0.0/8"),
		DstPrefix: fivetuple.MustParsePrefix("192.168.1.0/24"),
		SrcPort:   fivetuple.PortRange{Lo: 1000, Hi: 2000},
		DstPort:   fivetuple.ExactPort(443),
		Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
	}
	rs := fivetuple.NewRuleSet("one", []fivetuple.Rule{rule})
	trace := GenerateTrace(rs, TraceConfig{Packets: 200, Seed: 3, MatchFraction: 1})
	for _, h := range trace {
		if !rule.Matches(h) {
			t.Fatalf("generated header %s does not match its source rule %s", h, rule)
		}
	}
}

func TestClassAndSizeStrings(t *testing.T) {
	if ACL.String() != "acl1" || FW.String() != "fw1" || IPC.String() != "ipc1" {
		t.Errorf("class names = %q %q %q", ACL, FW, IPC)
	}
	if Size1K.String() != "1k" || Size5K.String() != "5k" || Size10K.String() != "10k" {
		t.Errorf("size names = %q %q %q", Size1K, Size5K, Size10K)
	}
	if Class(9).String() == "" || Size(9).String() == "" {
		t.Error("unknown class/size should still render")
	}
	cfg := StandardConfig(ACL, Size1K)
	if cfg.Name() != "acl1-916" {
		t.Errorf("Name() = %q, want acl1-916", cfg.Name())
	}
}

func TestConfigDefaultsFillEveryClass(t *testing.T) {
	for _, class := range []Class{ACL, FW, IPC} {
		cfg := Config{Class: class, Rules: 500, Seed: 1}
		rs := Generate(cfg)
		if rs.Len() != 500 {
			t.Errorf("%s: generated %d rules, want 500", class, rs.Len())
		}
		for _, f := range fivetuple.Fields() {
			if rs.UniqueFieldCount(f) == 0 {
				t.Errorf("%s: no unique values in dimension %s", class, f)
			}
		}
	}
	// Zero-value class defaults to ACL and a non-zero rule count.
	rs := Generate(Config{Seed: 2})
	if rs.Len() == 0 {
		t.Error("zero-value config generated an empty set")
	}
}

func TestFirewallSetsContainPortRanges(t *testing.T) {
	rs := Generate(StandardConfig(FW, Size1K))
	ranges := 0
	for _, r := range rs.Rules() {
		if !r.DstPort.IsExact() && !r.DstPort.IsWildcard() {
			ranges++
		}
	}
	if ranges == 0 {
		t.Error("firewall set contains no destination port ranges")
	}
}

func TestACLSourcePortIsWildcardOnly(t *testing.T) {
	// Table II: acl1 sets have exactly one unique source-port value (the
	// wildcard).
	rs := Generate(StandardConfig(ACL, Size10K))
	for i, r := range rs.Rules() {
		if !r.SrcPort.IsWildcard() {
			t.Fatalf("rule %d has non-wildcard source port %s", i, r.SrcPort)
		}
	}
}

// TestParseNames pins the class and size names every command and the facade
// accept: the short names, the classes' String forms, any case, surrounding
// space ignored; anything else fails naming the valid ones.
func TestParseNames(t *testing.T) {
	for name, want := range map[string]Class{"acl": ACL, " ACL1 ": ACL, "fw": FW, "Fw1": FW, "ipc": IPC, "ipc1\n": IPC} {
		if got, err := ParseClass(name); err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for name, want := range map[string]Size{"1k": Size1K, " 5K": Size5K, "10k ": Size10K} {
		if got, err := ParseSize(name); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseClass("acl2"); err == nil || !strings.Contains(err.Error(), "acl, fw, ipc") {
		t.Errorf("ParseClass(acl2) error %v, want one naming acl, fw, ipc", err)
	}
	if _, err := ParseSize("2k"); err == nil || !strings.Contains(err.Error(), "1k, 5k, 10k") {
		t.Errorf("ParseSize(2k) error %v, want one naming 1k, 5k, 10k", err)
	}
}
