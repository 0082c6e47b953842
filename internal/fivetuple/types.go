// Package fivetuple defines the packet-header and classification-rule model
// used throughout the repository.
//
// The model follows the 5-tuple convention used by the paper: source and
// destination IPv4 prefixes, source and destination transport-port ranges and
// an IP protocol match. Rules are ordered by priority (the rule listed first
// in a filter set has the highest priority) and the classification result is
// always the Highest Priority Matching Rule (HPMR).
//
// The package also implements the ClassBench text format ("@src dst sp : sp
// dp : dp proto/mask") so that publicly available filter sets can be loaded
// directly, and a linear-search reference classifier that serves as the
// ground truth for every lookup engine in this repository.
package fivetuple

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// IPv4 is an IPv4 address in host byte order.
type IPv4 uint32

// MaxPort is the largest transport-layer port value.
const MaxPort uint16 = 65535

// ParseIPv4 parses a dotted-quad IPv4 address such as "192.168.0.1". It
// walks the dots in place, so a valid address allocates nothing.
func ParseIPv4(s string) (IPv4, error) {
	if strings.Count(s, ".") != 3 {
		return 0, fmt.Errorf("fivetuple: invalid IPv4 address %q", s)
	}
	var addr uint32
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ".")
		octet, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("fivetuple: invalid IPv4 octet %q in %q: %w", part, s, err)
		}
		addr = addr<<8 | uint32(octet)
	}
	return IPv4(addr), nil
}

// MustParseIPv4 is like ParseIPv4 but panics on malformed input. It is
// intended for tests and package-level examples with literal addresses.
func MustParseIPv4(s string) IPv4 {
	addr, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return addr
}

// String renders the address in dotted-quad notation.
func (a IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// High16 returns the most significant 16 bits of the address. The paper's
// architecture splits every IP field into two 16-bit segments, each served by
// its own lookup engine.
func (a IPv4) High16() uint16 { return uint16(a >> 16) }

// Low16 returns the least significant 16 bits of the address.
func (a IPv4) Low16() uint16 { return uint16(a) }

// Prefix is an IPv4 prefix (address plus prefix length), e.g. 10.0.0.0/8.
type Prefix struct {
	// Addr is the prefix network address. Bits beyond Len are ignored by
	// Matches but preserved verbatim for round-tripping filter files.
	Addr IPv4
	// Len is the prefix length in bits, 0..32. Len == 0 is the wildcard.
	Len uint8
}

// ErrBadPrefix reports a malformed prefix string.
var ErrBadPrefix = errors.New("fivetuple: malformed prefix")

// ParsePrefix parses "a.b.c.d/len". A bare address is treated as /32.
func ParsePrefix(s string) (Prefix, error) {
	addrPart := s
	lenPart := "32"
	if idx := strings.IndexByte(s, '/'); idx >= 0 {
		addrPart, lenPart = s[:idx], s[idx+1:]
	}
	addr, err := ParseIPv4(addrPart)
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q: %v", ErrBadPrefix, s, err)
	}
	length, err := strconv.ParseUint(lenPart, 10, 8)
	if err != nil || length > 32 {
		return Prefix{}, fmt.Errorf("%w: %q: bad length", ErrBadPrefix, s)
	}
	return Prefix{Addr: addr, Len: uint8(length)}, nil
}

// MustParsePrefix is like ParsePrefix but panics on malformed input.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the network mask corresponding to the prefix length.
func (p Prefix) Mask() IPv4 {
	if p.Len == 0 {
		return 0
	}
	return IPv4(^uint32(0) << (32 - uint32(p.Len)))
}

// Canonical returns the prefix with host bits cleared. Two prefixes that
// match the same set of addresses have equal canonical forms.
func (p Prefix) Canonical() Prefix {
	return Prefix{Addr: p.Addr & p.Mask(), Len: p.Len}
}

// Matches reports whether the address falls inside the prefix.
func (p Prefix) Matches(a IPv4) bool {
	return (a & p.Mask()) == (p.Addr & p.Mask())
}

// IsWildcard reports whether the prefix matches every address.
func (p Prefix) IsWildcard() bool { return p.Len == 0 }

// Contains reports whether every address matched by q is also matched by p.
func (p Prefix) Contains(q Prefix) bool {
	if q.Len < p.Len {
		return false
	}
	return p.Matches(q.Addr & q.Mask())
}

// Overlaps reports whether p and q match at least one common address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q) || q.Contains(p)
}

// String renders the prefix as "a.b.c.d/len".
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}

// HighSegment returns the prefix restricted to the high 16-bit segment of the
// address, expressed as a 16-bit value and a segment prefix length in 0..16.
// The architecture stores one trie per 16-bit segment, so a /24 prefix maps
// to a fully specified high segment (/16) and an 8-bit low segment.
func (p Prefix) HighSegment() (value uint16, bits uint8) {
	seg := p.Canonical()
	value = seg.Addr.High16()
	if seg.Len >= 16 {
		return value, 16
	}
	return value, seg.Len
}

// LowSegment returns the prefix restricted to the low 16-bit segment of the
// address. If the prefix is shorter than 16 bits the low segment is a full
// wildcard (bits == 0).
func (p Prefix) LowSegment() (value uint16, bits uint8) {
	seg := p.Canonical()
	value = seg.Addr.Low16()
	if seg.Len <= 16 {
		return value, 0
	}
	return value, seg.Len - 16
}

// PortRange is an inclusive range of transport-layer ports [Lo, Hi].
type PortRange struct {
	Lo uint16
	Hi uint16
}

// ErrBadPortRange reports a malformed port-range string.
var ErrBadPortRange = errors.New("fivetuple: malformed port range")

// ParsePortRange parses the ClassBench "lo : hi" syntax. Surrounding spaces
// are ignored, and a single value "p" is treated as the exact range [p, p].
func ParsePortRange(s string) (PortRange, error) {
	s = strings.TrimSpace(s)
	loPart := s
	hiPart := s
	if idx := strings.IndexByte(s, ':'); idx >= 0 {
		loPart, hiPart = strings.TrimSpace(s[:idx]), strings.TrimSpace(s[idx+1:])
	}
	lo, err := strconv.ParseUint(loPart, 10, 16)
	if err != nil {
		return PortRange{}, fmt.Errorf("%w: %q", ErrBadPortRange, s)
	}
	hi, err := strconv.ParseUint(hiPart, 10, 16)
	if err != nil {
		return PortRange{}, fmt.Errorf("%w: %q", ErrBadPortRange, s)
	}
	if lo > hi {
		return PortRange{}, fmt.Errorf("%w: %q: low bound exceeds high bound", ErrBadPortRange, s)
	}
	return PortRange{Lo: uint16(lo), Hi: uint16(hi)}, nil
}

// WildcardPortRange matches every port.
func WildcardPortRange() PortRange { return PortRange{Lo: 0, Hi: MaxPort} }

// ExactPort returns the range matching exactly p.
func ExactPort(p uint16) PortRange { return PortRange{Lo: p, Hi: p} }

// Matches reports whether the port falls inside the range.
func (r PortRange) Matches(p uint16) bool { return p >= r.Lo && p <= r.Hi }

// IsExact reports whether the range matches a single port.
func (r PortRange) IsExact() bool { return r.Lo == r.Hi }

// IsWildcard reports whether the range matches every port.
func (r PortRange) IsWildcard() bool { return r.Lo == 0 && r.Hi == MaxPort }

// Width returns the number of ports matched by the range.
func (r PortRange) Width() uint32 { return uint32(r.Hi) - uint32(r.Lo) + 1 }

// Contains reports whether every port matched by q is also matched by r.
func (r PortRange) Contains(q PortRange) bool { return r.Lo <= q.Lo && q.Hi <= r.Hi }

// Overlaps reports whether r and q match at least one common port.
func (r PortRange) Overlaps(q PortRange) bool { return r.Lo <= q.Hi && q.Lo <= r.Hi }

// String renders the range in ClassBench "lo : hi" syntax.
func (r PortRange) String() string { return fmt.Sprintf("%d : %d", r.Lo, r.Hi) }

// ProtocolMatch matches the IP protocol field using a value/mask pair, the
// convention used by ClassBench filter sets (0x06/0xFF for TCP, 0x00/0x00 for
// the wildcard).
type ProtocolMatch struct {
	Value uint8
	Mask  uint8
}

// ErrBadProtocol reports a malformed protocol match string.
var ErrBadProtocol = errors.New("fivetuple: malformed protocol match")

// ParseProtocolMatch parses the ClassBench "0xVV/0xMM" syntax. A bare value
// is treated as an exact match.
func ParseProtocolMatch(s string) (ProtocolMatch, error) {
	s = strings.TrimSpace(s)
	valPart := s
	maskPart := "0xFF"
	if idx := strings.IndexByte(s, '/'); idx >= 0 {
		valPart, maskPart = s[:idx], s[idx+1:]
	}
	val, err := parseUint8(valPart)
	if err != nil {
		return ProtocolMatch{}, fmt.Errorf("%w: %q", ErrBadProtocol, s)
	}
	mask, err := parseUint8(maskPart)
	if err != nil {
		return ProtocolMatch{}, fmt.Errorf("%w: %q", ErrBadProtocol, s)
	}
	return ProtocolMatch{Value: val, Mask: mask}, nil
}

func parseUint8(s string) (uint8, error) {
	s = strings.TrimSpace(s)
	base := 10
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		s, base = s[2:], 16
	}
	v, err := strconv.ParseUint(s, base, 8)
	if err != nil {
		return 0, err
	}
	return uint8(v), nil
}

// WildcardProtocol matches every protocol value.
func WildcardProtocol() ProtocolMatch { return ProtocolMatch{} }

// ExactProtocol matches exactly the given protocol value.
func ExactProtocol(v uint8) ProtocolMatch { return ProtocolMatch{Value: v, Mask: 0xFF} }

// Matches reports whether the protocol value satisfies the match.
func (m ProtocolMatch) Matches(p uint8) bool { return p&m.Mask == m.Value&m.Mask }

// IsWildcard reports whether the match accepts every protocol.
func (m ProtocolMatch) IsWildcard() bool { return m.Mask == 0 }

// IsExact reports whether the match accepts a single protocol value.
func (m ProtocolMatch) IsExact() bool { return m.Mask == 0xFF }

// String renders the match in ClassBench "0xVV/0xMM" syntax.
func (m ProtocolMatch) String() string { return fmt.Sprintf("0x%02X/0x%02X", m.Value, m.Mask) }

// Well-known IP protocol numbers used by the generators and examples.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
	ProtoGRE  uint8 = 47
	ProtoESP  uint8 = 50
)

// Header is the tuple extracted from a packet header. It is the unit of work
// handed to every classifier in this repository. The zero value of the
// extension dimensions (Family == FamilyIPv4, VLAN == 0, TCPFlags == 0,
// all-zero IPv6 addresses) describes an untagged IPv4 packet, so legacy
// five-tuple callers are unaffected.
//
// Header is a comparable struct: the microflow cache and test harnesses rely
// on struct equality covering every dimension. When adding a field here, also
// extend cache.hashHeader — the cache package has a reflection-based
// regression test that fails if the hash misses a field.
type Header struct {
	SrcIP    IPv4
	DstIP    IPv4
	SrcPort  uint16
	DstPort  uint16
	Protocol uint8

	// Family selects which address fields are meaningful. FamilyIPv4 (the
	// zero value) uses SrcIP/DstIP; FamilyIPv6 uses SrcIP6/DstIP6.
	Family Family
	// VLAN is the 12-bit 802.1Q tag; 0 means untagged.
	VLAN uint16
	// TCPFlags is the TCP flags byte; 0 for non-TCP traffic.
	TCPFlags uint8
	// SrcIP6 and DstIP6 carry the 128-bit addresses when Family ==
	// FamilyIPv6.
	SrcIP6 IPv6
	DstIP6 IPv6
}

// String renders the header in a compact human-readable form.
func (h Header) String() string {
	if h.Family == FamilyIPv6 {
		return fmt.Sprintf("%s:%d -> %s:%d proto %d vlan %d flags 0x%02X",
			h.SrcIP6, h.SrcPort, h.DstIP6, h.DstPort, h.Protocol, h.VLAN, h.TCPFlags)
	}
	if h.VLAN != 0 || h.TCPFlags != 0 {
		return fmt.Sprintf("%s:%d -> %s:%d proto %d vlan %d flags 0x%02X",
			h.SrcIP, h.SrcPort, h.DstIP, h.DstPort, h.Protocol, h.VLAN, h.TCPFlags)
	}
	return fmt.Sprintf("%s:%d -> %s:%d proto %d", h.SrcIP, h.SrcPort, h.DstIP, h.DstPort, h.Protocol)
}

// Field identifies one of the five header dimensions.
type Field uint8

// The five classification dimensions, in the order used by the architecture
// when packing labels into the combination key.
const (
	FieldSrcIP Field = iota + 1
	FieldDstIP
	FieldSrcPort
	FieldDstPort
	FieldProtocol
)

// NumFields is the number of classification dimensions.
const NumFields = 5

// Fields lists all dimensions in canonical order.
func Fields() []Field { return allFields[:] }

// allFields backs Fields so the hot paths iterating the dimensions do not
// allocate a fresh slice per packet. Callers must not mutate the result.
var allFields = [...]Field{FieldSrcIP, FieldDstIP, FieldSrcPort, FieldDstPort, FieldProtocol}

// String names the field.
func (f Field) String() string {
	switch f {
	case FieldSrcIP:
		return "srcIP"
	case FieldDstIP:
		return "dstIP"
	case FieldSrcPort:
		return "srcPort"
	case FieldDstPort:
		return "dstPort"
	case FieldProtocol:
		return "protocol"
	default:
		return fmt.Sprintf("Field(%d)", uint8(f))
	}
}
