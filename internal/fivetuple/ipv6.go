package fivetuple

import (
	"fmt"
	"net/netip"
)

// Family identifies the IP address family a header carries. The zero value is
// FamilyIPv4, so every pre-existing five-tuple header (and every header
// decoded from legacy wire formats) keeps its meaning unchanged.
type Family uint8

// Address families.
const (
	// FamilyIPv4 marks a header whose addresses are the 32-bit SrcIP/DstIP
	// fields.
	FamilyIPv4 Family = iota
	// FamilyIPv6 marks a header whose addresses are the 128-bit
	// SrcIP6/DstIP6 fields; the 32-bit fields are ignored.
	FamilyIPv6
)

// String names the family.
func (f Family) String() string {
	switch f {
	case FamilyIPv4:
		return "ipv4"
	case FamilyIPv6:
		return "ipv6"
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// IPv6 is a 128-bit IPv6 address in host bit order, split into two 64-bit
// words (Hi holds the first eight bytes). The representation is comparable,
// so headers carrying it remain valid map and cache keys.
type IPv6 struct {
	Hi uint64
	Lo uint64
}

// ParseIPv6 parses a textual IPv6 address such as "2001:db8::1".
func ParseIPv6(s string) (IPv6, error) {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is6() || a.Is4In6() {
		return IPv6{}, fmt.Errorf("fivetuple: invalid IPv6 address %q", s)
	}
	b := a.As16()
	var v IPv6
	for i := 0; i < 8; i++ {
		v.Hi = v.Hi<<8 | uint64(b[i])
		v.Lo = v.Lo<<8 | uint64(b[i+8])
	}
	return v, nil
}

// MustParseIPv6 is like ParseIPv6 but panics on malformed input.
func MustParseIPv6(s string) IPv6 {
	v, err := ParseIPv6(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String renders the address in canonical RFC 5952 form.
func (a IPv6) String() string {
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(a.Hi >> (56 - 8*i))
		b[i+8] = byte(a.Lo >> (56 - 8*i))
	}
	return netip.AddrFrom16(b).String()
}

// Prefix6 is an IPv6 prefix (address plus prefix length), e.g. 2001:db8::/32.
// Len == 0 is the wildcard; a rule whose Src6/Dst6 prefixes are both
// wildcards carries no IPv6 constraint at all.
type Prefix6 struct {
	// Addr is the prefix network address. Bits beyond Len are ignored by
	// Matches but preserved verbatim; Canonical clears them.
	Addr IPv6
	// Len is the prefix length in bits, 0..128.
	Len uint8
}

// ParsePrefix6 parses "addr/len". A bare address is treated as /128.
func ParsePrefix6(s string) (Prefix6, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		a, aerr := ParseIPv6(s)
		if aerr != nil {
			return Prefix6{}, fmt.Errorf("%w: %q", ErrBadPrefix, s)
		}
		return Prefix6{Addr: a, Len: 128}, nil
	}
	if !p.Addr().Is6() || p.Addr().Is4In6() {
		return Prefix6{}, fmt.Errorf("%w: %q: not an IPv6 prefix", ErrBadPrefix, s)
	}
	addr, err := ParseIPv6(p.Addr().WithZone("").String())
	if err != nil {
		return Prefix6{}, fmt.Errorf("%w: %q", ErrBadPrefix, s)
	}
	return Prefix6{Addr: addr, Len: uint8(p.Bits())}, nil
}

// MustParsePrefix6 is like ParsePrefix6 but panics on malformed input.
func MustParsePrefix6(s string) Prefix6 {
	p, err := ParsePrefix6(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Masks returns the 128-bit network mask as two 64-bit words — the exported
// form generators use to draw addresses inside a prefix.
func (p Prefix6) Masks() (hi, lo uint64) { return p.masks() }

// masks returns the 128-bit network mask as two 64-bit words.
func (p Prefix6) masks() (hi, lo uint64) {
	switch {
	case p.Len == 0:
		return 0, 0
	case p.Len <= 64:
		return ^uint64(0) << (64 - uint(p.Len)), 0
	case p.Len >= 128:
		return ^uint64(0), ^uint64(0)
	default:
		return ^uint64(0), ^uint64(0) << (128 - uint(p.Len))
	}
}

// Canonical returns the prefix with host bits cleared. Two prefixes matching
// the same address set have equal canonical forms.
func (p Prefix6) Canonical() Prefix6 {
	hi, lo := p.masks()
	return Prefix6{Addr: IPv6{Hi: p.Addr.Hi & hi, Lo: p.Addr.Lo & lo}, Len: p.Len}
}

// Matches reports whether the address falls inside the prefix.
func (p Prefix6) Matches(a IPv6) bool {
	hi, lo := p.masks()
	return a.Hi&hi == p.Addr.Hi&hi && a.Lo&lo == p.Addr.Lo&lo
}

// IsWildcard reports whether the prefix matches every address.
func (p Prefix6) IsWildcard() bool { return p.Len == 0 }

// String renders the prefix as "addr/len".
func (p Prefix6) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Len) }

// MaxVLAN is the largest valid 802.1Q VLAN identifier (the tag field is 12
// bits wide).
const MaxVLAN uint16 = 4095

// VLANMatch matches the 12-bit 802.1Q VLAN tag with a value/mask pair.
// Mask == 0 is the wildcard (the zero value matches every header, tagged or
// not), Mask == 0x0FFF the exact match.
type VLANMatch struct {
	Value uint16
	Mask  uint16
}

// ExactVLAN matches exactly the given VLAN tag.
func ExactVLAN(v uint16) VLANMatch { return VLANMatch{Value: v, Mask: 0x0FFF} }

// Matches reports whether the tag satisfies the match.
func (m VLANMatch) Matches(v uint16) bool { return v&m.Mask == m.Value&m.Mask }

// IsWildcard reports whether the match accepts every tag.
func (m VLANMatch) IsWildcard() bool { return m.Mask == 0 }

// String renders the match as "0xVVV/0xMMM".
func (m VLANMatch) String() string { return fmt.Sprintf("0x%03X/0x%03X", m.Value, m.Mask) }

// TCP flag bits, in header bit order.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
	TCPEce
	TCPCwr
)

// TCPFlagMatch matches the TCP flags byte with a value/mask pair: the header
// bits selected by Mask must equal the corresponding bits of Value. Mask == 0
// is the wildcard (the zero value), so non-TCP traffic and legacy rules are
// unaffected. {Value: TCPSyn, Mask: TCPSyn | TCPAck} matches SYNs that are
// not SYN-ACKs.
type TCPFlagMatch struct {
	Value uint8
	Mask  uint8
}

// Matches reports whether the flags byte satisfies the match.
func (m TCPFlagMatch) Matches(f uint8) bool { return f&m.Mask == m.Value&m.Mask }

// IsWildcard reports whether the match accepts every flags byte.
func (m TCPFlagMatch) IsWildcard() bool { return m.Mask == 0 }

// String renders the match as "0xVV/0xMM".
func (m TCPFlagMatch) String() string { return fmt.Sprintf("0x%02X/0x%02X", m.Value, m.Mask) }
