// Package classbench generates synthetic filter sets and packet-header
// traces in the style of the ClassBench benchmark suite.
//
// The paper evaluates its architecture on the publicly distributed filter
// sets from www.arl.wustl.edu (Access Control Lists, Firewalls and IP
// Chains at 1K, 5K and 10K rules, Table III) and reports the number of
// unique rule-field values of the acl1 sets (Table II). Those files are no
// longer hosted, so this package provides seeded, deterministic generators
// calibrated to reproduce the structural statistics the paper reports:
//
//   - rule counts per class and size (Table III),
//   - unique field-value counts per dimension (Table II for acl1),
//   - prefix-length, port-range and protocol distributions typical of each
//     filter class.
//
// Real ClassBench files can still be used instead: fivetuple.ParseClassBench
// reads the standard text format, and every consumer in this repository
// accepts a *fivetuple.RuleSet regardless of its origin.
package classbench

import (
	"fmt"
	"math/rand"
	"strings"

	"sdnpc/internal/fivetuple"
)

// Class identifies the filter-set family, mirroring the three families used
// by the paper (Table III).
type Class int

// Supported filter-set families.
const (
	// ACL models Access Control Lists: mostly exact destination ports,
	// wildcard source ports, and a large number of distinct source prefixes.
	ACL Class = iota + 1
	// FW models Firewall rule sets: arbitrary port ranges on both ports and
	// many wildcarded prefixes.
	FW
	// IPC models IP Chains rule sets: a mixture of the two.
	IPC
)

// String names the class with the identifier used in the paper.
func (c Class) String() string {
	switch c {
	case ACL:
		return "acl1"
	case FW:
		return "fw1"
	case IPC:
		return "ipc1"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass returns the class a name selects: "acl", "fw" or "ipc", or its
// String form ("acl1", …), in any case, surrounding space ignored.
func ParseClass(name string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "acl", "acl1":
		return ACL, nil
	case "fw", "fw1":
		return FW, nil
	case "ipc", "ipc1":
		return IPC, nil
	default:
		return 0, fmt.Errorf("unknown filter-set class %q (acl, fw, ipc)", name)
	}
}

// Size selects one of the three filter-set sizes evaluated in the paper.
type Size int

// Filter-set sizes from Table III.
const (
	Size1K Size = iota + 1
	Size5K
	Size10K
)

// String names the size.
func (s Size) String() string {
	switch s {
	case Size1K:
		return "1k"
	case Size5K:
		return "5k"
	case Size10K:
		return "10k"
	default:
		return fmt.Sprintf("Size(%d)", int(s))
	}
}

// ParseSize returns the size a name selects: "1k", "5k" or "10k", in any
// case, surrounding space ignored.
func ParseSize(name string) (Size, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "1k":
		return Size1K, nil
	case "5k":
		return Size5K, nil
	case "10k":
		return Size10K, nil
	default:
		return 0, fmt.Errorf("unknown filter-set size %q (1k, 5k, 10k)", name)
	}
}

// RuleCount returns the exact rule count the paper reports for the given
// class and size (Table III).
func RuleCount(c Class, s Size) int {
	counts := map[Class]map[Size]int{
		ACL: {Size1K: 916, Size5K: 4415, Size10K: 9603},
		FW:  {Size1K: 791, Size5K: 4653, Size10K: 9311},
		IPC: {Size1K: 938, Size5K: 4460, Size10K: 9037},
	}
	if m, ok := counts[c]; ok {
		if n, ok := m[s]; ok {
			return n
		}
	}
	return 0
}

// UniqueFieldTargets returns the unique-field counts the paper reports in
// Table II for the acl1 filter sets. Only ACL sets have published targets;
// for FW and IPC the generator uses class-typical ratios and ok is false.
func UniqueFieldTargets(c Class, s Size) (targets map[fivetuple.Field]int, ok bool) {
	if c != ACL {
		return nil, false
	}
	table := map[Size]map[fivetuple.Field]int{
		Size1K: {
			fivetuple.FieldSrcIP:    103,
			fivetuple.FieldDstIP:    297,
			fivetuple.FieldSrcPort:  1,
			fivetuple.FieldDstPort:  99,
			fivetuple.FieldProtocol: 3,
		},
		Size5K: {
			fivetuple.FieldSrcIP:    805,
			fivetuple.FieldDstIP:    640,
			fivetuple.FieldSrcPort:  1,
			fivetuple.FieldDstPort:  108,
			fivetuple.FieldProtocol: 3,
		},
		Size10K: {
			fivetuple.FieldSrcIP:    4784,
			fivetuple.FieldDstIP:    733,
			fivetuple.FieldSrcPort:  1,
			fivetuple.FieldDstPort:  108,
			fivetuple.FieldProtocol: 3,
		},
	}
	t, ok := table[s]
	return t, ok
}

// Config parameterises the generator. The zero value is not useful; build
// configs with StandardConfig or fill every field explicitly.
type Config struct {
	// Class selects the filter-set family.
	Class Class
	// Rules is the number of rules to generate.
	Rules int
	// Seed makes generation deterministic. Two calls with equal configs
	// produce identical rule sets.
	Seed int64

	// UniqueSrcIP, UniqueDstIP, UniqueSrcPort, UniqueDstPort and
	// UniqueProtocol bound the number of distinct field values. Values of 0
	// fall back to class-typical ratios.
	UniqueSrcIP    int
	UniqueDstIP    int
	UniqueSrcPort  int
	UniqueDstPort  int
	UniqueProtocol int

	// Generalized-dimension knobs. Each is the fraction of body rules the
	// corresponding extension applies to; 0 (the default) generates classic
	// IPv4 five-tuple sets. Extended rules require a packet engine declaring
	// the dimension (see engine.Definition.Dims) — the field tier refuses
	// them.
	//
	// IPv6Fraction converts rules to IPv6: the v4 prefixes are cleared (a rule
	// constrains one family) and documentation-prefix (2001:db8::/32) source
	// and destination v6 prefixes are drawn instead.
	IPv6Fraction float64
	// VLANFraction adds an exact 802.1Q tag match.
	VLANFraction float64
	// TCPFlagFraction adds a TCP-flag match (SYN-only or established-style).
	TCPFlagFraction float64
	// NonTerminatingFraction marks rules non-terminating: a lookup that
	// matches one collects its action and keeps evaluating (multi-action
	// semantics). The trailing default rule always terminates.
	NonTerminatingFraction float64
}

// StandardConfig returns the configuration reproducing the paper's filter
// set of the given class and size, including the Table II unique-field
// calibration for ACL sets.
func StandardConfig(c Class, s Size) Config {
	cfg := Config{
		Class: c,
		Rules: RuleCount(c, s),
		Seed:  int64(c)*1000 + int64(s),
	}
	if targets, ok := UniqueFieldTargets(c, s); ok {
		cfg.UniqueSrcIP = targets[fivetuple.FieldSrcIP]
		cfg.UniqueDstIP = targets[fivetuple.FieldDstIP]
		cfg.UniqueSrcPort = targets[fivetuple.FieldSrcPort]
		cfg.UniqueDstPort = targets[fivetuple.FieldDstPort]
		cfg.UniqueProtocol = targets[fivetuple.FieldProtocol]
	}
	return cfg
}

// Name returns the conventional name of the generated set, e.g. "acl1-10k".
func (cfg Config) Name() string {
	return fmt.Sprintf("%s-%d", cfg.Class, cfg.Rules)
}

func (cfg Config) withDefaults() Config {
	out := cfg
	if out.Rules <= 0 {
		out.Rules = 1000
	}
	defaultUnique := func(ratioNum, ratioDen, minimum, maximum int) int {
		n := out.Rules * ratioNum / ratioDen
		if n < minimum {
			n = minimum
		}
		if maximum > 0 && n > maximum {
			n = maximum
		}
		if n > out.Rules {
			n = out.Rules
		}
		return n
	}
	switch out.Class {
	case FW:
		if out.UniqueSrcIP == 0 {
			out.UniqueSrcIP = defaultUnique(1, 5, 8, 0)
		}
		if out.UniqueDstIP == 0 {
			out.UniqueDstIP = defaultUnique(1, 6, 8, 0)
		}
		if out.UniqueSrcPort == 0 {
			out.UniqueSrcPort = defaultUnique(1, 50, 6, 96)
		}
		if out.UniqueDstPort == 0 {
			out.UniqueDstPort = defaultUnique(1, 40, 8, 120)
		}
		if out.UniqueProtocol == 0 {
			out.UniqueProtocol = 4
		}
	case IPC:
		if out.UniqueSrcIP == 0 {
			out.UniqueSrcIP = defaultUnique(1, 3, 8, 0)
		}
		if out.UniqueDstIP == 0 {
			out.UniqueDstIP = defaultUnique(1, 4, 8, 0)
		}
		if out.UniqueSrcPort == 0 {
			out.UniqueSrcPort = defaultUnique(1, 80, 2, 64)
		}
		if out.UniqueDstPort == 0 {
			out.UniqueDstPort = defaultUnique(1, 50, 8, 110)
		}
		if out.UniqueProtocol == 0 {
			out.UniqueProtocol = 3
		}
	default: // ACL and anything unspecified
		if out.Class == 0 {
			out.Class = ACL
		}
		if out.UniqueSrcIP == 0 {
			out.UniqueSrcIP = defaultUnique(1, 2, 8, 0)
		}
		if out.UniqueDstIP == 0 {
			out.UniqueDstIP = defaultUnique(1, 13, 8, 733)
		}
		if out.UniqueSrcPort == 0 {
			out.UniqueSrcPort = 1
		}
		if out.UniqueDstPort == 0 {
			out.UniqueDstPort = defaultUnique(1, 9, 4, 108)
		}
		if out.UniqueProtocol == 0 {
			out.UniqueProtocol = 3
		}
	}
	return out
}

// Generate produces a deterministic synthetic filter set for the given
// configuration. The result always ends with a lowest-priority wildcard
// (default) rule, matching the convention of the published filter sets.
func Generate(cfg Config) *fivetuple.RuleSet {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := &generator{cfg: cfg, rng: rng}
	return gen.run()
}

type generator struct {
	cfg Config
	rng *rand.Rand
}

func (g *generator) run() *fivetuple.RuleSet {
	n := g.cfg.Rules
	// One slot is reserved for the trailing default rule.
	body := n - 1
	if body < 0 {
		body = 0
	}

	// The trailing default rule contributes the wildcard prefix in both IP
	// dimensions, so the body pools are one smaller and exclude the wildcard;
	// this keeps the unique-field counts exactly on the Table II targets.
	srcPrefixes := g.prefixPool(g.cfg.UniqueSrcIP-boolToInt(body > 0), g.srcPrefixLen)
	dstPrefixes := g.prefixPool(g.cfg.UniqueDstIP-boolToInt(body > 0), g.dstPrefixLen)
	srcPorts := g.portPool(g.cfg.UniqueSrcPort, g.cfg.Class != ACL)
	dstPorts := g.portPool(g.cfg.UniqueDstPort, true)
	protos := g.protocolPool(g.cfg.UniqueProtocol)

	srcIdx := g.assignment(body, len(srcPrefixes))
	dstIdx := g.assignment(body, len(dstPrefixes))
	spIdx := g.assignment(body, len(srcPorts))
	dpIdx := g.assignment(body, len(dstPorts))
	prIdx := g.assignment(body, len(protos))

	rules := make([]fivetuple.Rule, 0, n)
	for i := 0; i < body; i++ {
		r := fivetuple.Rule{
			SrcPrefix: srcPrefixes[srcIdx[i]],
			DstPrefix: dstPrefixes[dstIdx[i]],
			SrcPort:   srcPorts[spIdx[i]],
			DstPort:   dstPorts[dpIdx[i]],
			Protocol:  protos[prIdx[i]],
			Action:    g.action(),
		}
		rules = append(rules, g.extend(r))
	}
	if n > 0 {
		rules = append(rules, fivetuple.Wildcard(len(rules), fivetuple.ActionDrop))
	}
	return fivetuple.NewRuleSet(g.cfg.Name(), rules)
}

// extend applies the generalized-dimension knobs to one body rule.
func (g *generator) extend(r fivetuple.Rule) fivetuple.Rule {
	cfg := g.cfg
	if cfg.IPv6Fraction > 0 && g.rng.Float64() < cfg.IPv6Fraction {
		r.Src6 = g.prefix6()
		r.Dst6 = g.prefix6()
		// A rule constrains one family: the v4 prefixes must be wildcard for
		// the v6 matches to be reachable (fivetuple.Rule.Matches).
		r.SrcPrefix, r.DstPrefix = fivetuple.Prefix{}, fivetuple.Prefix{}
	}
	if cfg.VLANFraction > 0 && g.rng.Float64() < cfg.VLANFraction {
		r.VLAN = fivetuple.ExactVLAN(uint16(1 + g.rng.Intn(int(fivetuple.MaxVLAN))))
	}
	if cfg.TCPFlagFraction > 0 && g.rng.Float64() < cfg.TCPFlagFraction {
		// The two flag shapes that dominate real sets: SYN-only (new
		// connections) and established-style (ACK set).
		if g.rng.Intn(2) == 0 {
			r.TCPFlags = fivetuple.TCPFlagMatch{Value: fivetuple.TCPSyn, Mask: fivetuple.TCPSyn | fivetuple.TCPAck}
		} else {
			r.TCPFlags = fivetuple.TCPFlagMatch{Value: fivetuple.TCPAck, Mask: fivetuple.TCPAck}
		}
	}
	if cfg.NonTerminatingFraction > 0 && g.rng.Float64() < cfg.NonTerminatingFraction {
		r.NonTerminating = true
	}
	return r
}

// prefix6 draws an IPv6 prefix inside the 2001:db8::/32 documentation block,
// with the subnet/host length mix of real v6 deployments.
func (g *generator) prefix6() fivetuple.Prefix6 {
	lens := []uint8{32, 48, 56, 64, 96, 128}
	return fivetuple.Prefix6{
		Addr: fivetuple.IPv6{
			Hi: 0x20010db8_00000000 | g.rng.Uint64()&0x00000000_ffffffff,
			Lo: g.rng.Uint64(),
		},
		Len: lens[g.rng.Intn(len(lens))],
	}.Canonical()
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// assignment builds an index list of length n over a pool of the given size
// in which every pool element appears at least once (so unique-value counts
// are exact) and the remaining slots follow a skewed popularity distribution,
// mimicking the heavy reuse of popular field values in real filter sets.
func (g *generator) assignment(n, pool int) []int {
	if pool <= 0 {
		pool = 1
	}
	idx := make([]int, 0, n)
	for i := 0; i < pool && i < n; i++ {
		idx = append(idx, i)
	}
	for len(idx) < n {
		idx = append(idx, g.skewedIndex(pool))
	}
	g.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// skewedIndex draws an index in [0, pool) with an approximately Zipfian
// popularity profile: low indices are drawn far more often than high ones.
func (g *generator) skewedIndex(pool int) int {
	// Square of a uniform variate concentrates mass near zero without the
	// numerical work of a true Zipf sampler; adequate for workload shaping.
	u := g.rng.Float64()
	return int(u * u * float64(pool))
}

func (g *generator) prefixPool(size int, lengthFn func() uint8) []fivetuple.Prefix {
	if size < 1 {
		size = 1
	}
	pool := make([]fivetuple.Prefix, 0, size)
	seen := make(map[string]struct{}, size)
	for len(pool) < size {
		p := fivetuple.Prefix{
			Addr: fivetuple.IPv4(g.rng.Uint32()),
			Len:  lengthFn(),
		}.Canonical()
		if p.IsWildcard() {
			// The wildcard prefix is contributed by the default rule only.
			continue
		}
		key := p.String()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		pool = append(pool, p)
	}
	return pool
}

// srcPrefixLen draws a source-prefix length. ACL sets concentrate on long
// prefixes (hosts and small subnets); firewalls use shorter ones.
func (g *generator) srcPrefixLen() uint8 {
	r := g.rng.Float64()
	switch g.cfg.Class {
	case FW:
		switch {
		case r < 0.30:
			return 0
		case r < 0.55:
			return uint8(8 + g.rng.Intn(9)) // 8..16
		case r < 0.85:
			return uint8(17 + g.rng.Intn(8)) // 17..24
		default:
			return 32
		}
	case IPC:
		switch {
		case r < 0.15:
			return 0
		case r < 0.45:
			return uint8(16 + g.rng.Intn(9)) // 16..24
		case r < 0.80:
			return uint8(25 + g.rng.Intn(7)) // 25..31
		default:
			return 32
		}
	default: // ACL
		switch {
		case r < 0.05:
			return 0
		case r < 0.20:
			return uint8(16 + g.rng.Intn(9)) // 16..24
		case r < 0.45:
			return uint8(25 + g.rng.Intn(7)) // 25..31
		default:
			return 32
		}
	}
}

// dstPrefixLen draws a destination-prefix length; destinations are typically
// subnets rather than hosts.
func (g *generator) dstPrefixLen() uint8 {
	r := g.rng.Float64()
	switch g.cfg.Class {
	case FW:
		switch {
		case r < 0.25:
			return 0
		case r < 0.65:
			return uint8(8 + g.rng.Intn(17)) // 8..24
		default:
			return 32
		}
	default:
		switch {
		case r < 0.08:
			return 0
		case r < 0.60:
			return uint8(16 + g.rng.Intn(9)) // 16..24
		case r < 0.85:
			return uint8(25 + g.rng.Intn(7)) // 25..31
		default:
			return 32
		}
	}
}

// wellKnownPorts are the service ports that dominate real filter sets.
var wellKnownPorts = []uint16{
	20, 21, 22, 23, 25, 53, 67, 68, 69, 80, 110, 119, 123, 135, 137, 138, 139,
	143, 161, 162, 179, 389, 443, 445, 465, 500, 514, 515, 520, 554, 587, 631,
	636, 993, 995, 1080, 1194, 1433, 1434, 1521, 1701, 1723, 1812, 1813, 2049,
	2082, 2083, 3128, 3306, 3389, 4500, 5060, 5061, 5432, 5900, 6000, 6667,
	8000, 8080, 8443, 8888, 9090, 9100, 10000,
}

// portPool builds a pool of distinct port matches. The first entry is always
// the wildcard (matching the observation that the wildcard dominates source
// ports); subsequent entries are well-known exact ports followed by ranges
// when allowRanges is set.
func (g *generator) portPool(size int, allowRanges bool) []fivetuple.PortRange {
	if size < 1 {
		size = 1
	}
	pool := make([]fivetuple.PortRange, 0, size)
	seen := make(map[fivetuple.PortRange]struct{}, size)
	add := func(r fivetuple.PortRange) {
		if _, dup := seen[r]; dup || len(pool) >= size {
			return
		}
		seen[r] = struct{}{}
		pool = append(pool, r)
	}
	add(fivetuple.WildcardPortRange())
	// Common administrative ranges seen in practice come before the long tail
	// of exact ports so that even small pools contain range matches.
	if allowRanges {
		add(fivetuple.PortRange{Lo: 0, Hi: 1023})
		add(fivetuple.PortRange{Lo: 1024, Hi: 65535})
		add(fivetuple.PortRange{Lo: 1024, Hi: 5000})
		add(fivetuple.PortRange{Lo: 49152, Hi: 65535})
		add(fivetuple.PortRange{Lo: 6000, Hi: 6063})
		add(fivetuple.PortRange{Lo: 137, Hi: 139})
	}
	for _, p := range wellKnownPorts {
		add(fivetuple.ExactPort(p))
	}
	for len(pool) < size {
		if allowRanges && g.rng.Float64() < 0.3 {
			lo := uint16(g.rng.Intn(60000))
			width := uint16(1 + g.rng.Intn(2000))
			hi := lo
			if int(lo)+int(width) <= int(fivetuple.MaxPort) {
				hi = lo + width
			}
			add(fivetuple.PortRange{Lo: lo, Hi: hi})
		} else {
			add(fivetuple.ExactPort(uint16(g.rng.Intn(65536))))
		}
	}
	return pool
}

// protocolPool builds a pool of distinct protocol matches; the paper's sets
// contain three (TCP, UDP and the wildcard) with a few extra protocols in
// firewall sets.
func (g *generator) protocolPool(size int) []fivetuple.ProtocolMatch {
	if size < 1 {
		size = 1
	}
	candidates := []fivetuple.ProtocolMatch{
		fivetuple.ExactProtocol(fivetuple.ProtoTCP),
		fivetuple.ExactProtocol(fivetuple.ProtoUDP),
		fivetuple.WildcardProtocol(),
		fivetuple.ExactProtocol(fivetuple.ProtoICMP),
		fivetuple.ExactProtocol(fivetuple.ProtoGRE),
		fivetuple.ExactProtocol(fivetuple.ProtoESP),
	}
	if size > len(candidates) {
		size = len(candidates)
	}
	pool := make([]fivetuple.ProtocolMatch, size)
	copy(pool, candidates[:size])
	return pool
}

func (g *generator) action() fivetuple.Action {
	if g.rng.Float64() < 0.15 {
		return fivetuple.ActionDrop
	}
	return fivetuple.ActionForward
}
