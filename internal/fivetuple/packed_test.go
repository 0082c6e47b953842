package fivetuple

import (
	"encoding/binary"
	"testing"
	"unsafe"
)

// TestPackedRuleSize pins the record at 40 bytes: 2.5 KiB a 64-record chunk.
func TestPackedRuleSize(t *testing.T) {
	if got := unsafe.Sizeof(PackedRule{}); got != 40 {
		t.Fatalf("PackedRule is %d bytes, want 40", got)
	}
}

// fuzzBytes hands out the fuzz input a few bytes at a time, zeros once it
// runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) []byte {
	out := make([]byte, 8)
	copy(out, *b)
	*b = (*b)[min(n, len(*b)):]
	return out[:n]
}

func (b *fuzzBytes) u8() uint8   { return b.next(1)[0] }
func (b *fuzzBytes) u16() uint16 { return binary.BigEndian.Uint16(b.next(2)) }
func (b *fuzzBytes) u32() uint32 { return binary.BigEndian.Uint32(b.next(4)) }

func (b *fuzzBytes) ipv6() IPv6 {
	return IPv6{Hi: uint64(b.u32())<<32 | uint64(b.u32()), Lo: uint64(b.u32())<<32 | uint64(b.u32())}
}

// rule decodes a rule. Addresses keep their host bits, port ranges may be
// inverted, the protocol mask is wildcard, exact or arbitrary with any value
// under it, and a flag byte adds the extension dimensions.
func (b *fuzzBytes) rule() Rule {
	r := Rule{
		SrcPrefix: Prefix{Addr: IPv4(b.u32()), Len: b.u8() % 33},
		DstPrefix: Prefix{Addr: IPv4(b.u32()), Len: b.u8() % 33},
		SrcPort:   PortRange{Lo: b.u16(), Hi: b.u16()},
		DstPort:   PortRange{Lo: b.u16(), Hi: b.u16()},
		Protocol:  ProtocolMatch{Value: b.u8()},
		Priority:  int(b.u8() % 4),
		Action:    Action(b.u8() % 6),
		ActionArg: b.u32(),
	}
	switch mask := b.u8(); mask % 3 {
	case 1:
		r.Protocol.Mask = 0xFF
	case 2:
		r.Protocol.Mask = mask
	}
	b.extend(&r)
	return r
}

// extend adds the dimensions a flag byte names.
func (b *fuzzBytes) extend(r *Rule) {
	flags := b.u8()
	if flags&1 != 0 {
		r.VLAN = VLANMatch{Value: b.u16(), Mask: b.u16() & 0x0FFF}
	}
	if flags&2 != 0 {
		r.TCPFlags = TCPFlagMatch{Value: b.u8(), Mask: b.u8()}
	}
	if flags&4 != 0 {
		r.Src6 = Prefix6{Addr: b.ipv6(), Len: b.u8() % 129}
	}
	if flags&8 != 0 {
		r.Dst6 = Prefix6{Addr: b.ipv6(), Len: b.u8() % 129}
	}
	if flags&16 != 0 {
		r.SrcPrefix, r.DstPrefix = Prefix{}, Prefix{}
	}
	r.NonTerminating = flags&32 != 0
}

// mutate returns a copy of r with at most one thing changed, so that two
// rules often match alike: host bits, a prefix length, a port bound, the
// protocol value, the priority or the verdict.
func (b *fuzzBytes) mutate(r Rule) Rule {
	switch v := b.u32(); b.u8() % 8 {
	case 1:
		r.SrcPrefix.Addr ^= IPv4(v)
	case 2:
		r.DstPrefix.Len = uint8(v % 33)
	case 3:
		r.DstPort.Hi = uint16(v)
	case 4:
		r.Protocol.Value = uint8(v)
	case 5:
		r.Priority = int(v % 4)
	case 6:
		r.Action, r.ActionArg, r.NonTerminating = Action(v%6), v, v&1 != 0
	}
	return r
}

// header decodes a header of either family with any VLAN and flags. With
// the low bit of its mode byte set, its IPv4 fields are drawn near r's:
// inside r's prefixes, on a port bound and at r's protocol value.
func (b *fuzzBytes) header(r *Rule) Header {
	h := Header{
		SrcIP: IPv4(b.u32()), DstIP: IPv4(b.u32()),
		SrcPort: b.u16(), DstPort: b.u16(), Protocol: b.u8(),
		VLAN: b.u16(), TCPFlags: b.u8(),
	}
	mode := b.u8()
	if mode&1 != 0 {
		h.SrcIP = r.SrcPrefix.Addr&r.SrcPrefix.Mask() | h.SrcIP&^r.SrcPrefix.Mask()
		h.DstIP = r.DstPrefix.Addr&r.DstPrefix.Mask() | h.DstIP&^r.DstPrefix.Mask()
		h.SrcPort, h.DstPort, h.Protocol = r.SrcPort.Lo, r.DstPort.Hi, r.Protocol.Value
	}
	if mode&2 != 0 {
		h.Family, h.SrcIP6, h.DstIP6 = FamilyIPv6, b.ipv6(), b.ipv6()
	}
	return h
}

// FuzzPackedRule holds the packed record to the rule it packs: PackRule
// refuses exactly the rules with an extension dimension other than
// DimMultiAction, and for every rule it accepts, Matches is Rule.Matches on
// headers of both families, Range covers exactly the values each field
// matches, Verdict is Rule.Verdict, and Same is SameMatch plus an equal
// priority.
//
// Input: a rule, a second rule (a mutation of the first, or with the low
// bit of the selector byte set, one decoded of its own) and headers, in the
// encoding of fuzzBytes.
func FuzzPackedRule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 0, 0, 1, 8, 192, 168, 1, 0, 24, 0, 0, 255, 255, 0, 80, 0, 80, 6, 1, 1, 0, 0, 0, 7, 1, 0})
	f.Add([]byte{10, 0, 0, 1, 8, 192, 168, 1, 0, 24, 0, 0, 255, 255, 0, 80, 0, 80, 6, 1, 1, 0, 0, 0, 7, 0x0F, 0x10, 0, 2, 1, 2, 3, 4, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 9, 1, 1, 0, 0, 255, 255, 17, 0, 2, 0, 0, 0, 1, 3, 48, 0, 1, 0, 0, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		a := b.rule()
		o := b.mutate(a)
		if b.u8()&1 != 0 {
			o = b.rule()
		}
		pa, okA := PackRule(&a)
		po, okO := PackRule(&o)
		for _, tc := range []struct {
			r  Rule
			ok bool
		}{{a, okA}, {o, okO}} {
			if ext := tc.r.Dims() &^ DimMultiAction; tc.ok != (ext == 0) {
				t.Fatalf("PackRule(%s) accepted %v with extension dimensions %s", tc.r, tc.ok, ext)
			}
		}
		if !okA {
			return
		}
		if got, want := pa.Verdict(), a.Verdict(); got != want {
			t.Fatalf("Verdict of %s = %+v, Rule.Verdict %+v", a, got, want)
		}
		if okO {
			if got, want := pa.Same(&po), a.SameMatch(o) && a.Priority == o.Priority; got != want {
				t.Fatalf("Same(%s priority %d, %s priority %d) = %v, want %v", a, a.Priority, o, o.Priority, got, want)
			}
		}
		for range 4 {
			h := b.header(&a)
			if got, want := pa.Matches(&h), a.Matches(h); got != want {
				t.Fatalf("Matches of %s on %s = %v, Rule.Matches %v", a, h, got, want)
			}
			for f, v := range map[Field]struct {
				key   uint32
				match bool
			}{
				FieldSrcIP:    {uint32(h.SrcIP), a.SrcPrefix.Matches(h.SrcIP)},
				FieldDstIP:    {uint32(h.DstIP), a.DstPrefix.Matches(h.DstIP)},
				FieldSrcPort:  {uint32(h.SrcPort), a.SrcPort.Matches(h.SrcPort)},
				FieldDstPort:  {uint32(h.DstPort), a.DstPort.Matches(h.DstPort)},
				FieldProtocol: {uint32(h.Protocol), a.Protocol.Matches(h.Protocol)},
			} {
				if lo, hi := pa.Range(f); (lo <= v.key && v.key <= hi) != v.match {
					t.Fatalf("Range(%s) of %s = [%d, %d], but %d matches: %v", f, a, lo, hi, v.key, v.match)
				}
			}
		}
	})
}

// TestSameMatchIgnoresBitsOutsideMask: a VLAN or TCP-flag wildcard with
// stray value bits matches what the zero wildcard matches, so it is the same
// match, as its packed record (which keeps no VLAN or flags) says.
func TestSameMatchIgnoresBitsOutsideMask(t *testing.T) {
	r := Wildcard(3, ActionDrop)
	stray := r
	stray.VLAN, stray.TCPFlags = VLANMatch{Value: 5}, TCPFlagMatch{Value: TCPSyn, Mask: TCPAck}
	r.TCPFlags.Mask = TCPAck
	if !r.SameMatch(stray) {
		t.Fatalf("%s and %s differ only in value bits outside the masks, want the same match", r, stray)
	}
	stray.TCPFlags.Value |= TCPAck
	if r.SameMatch(stray) {
		t.Fatalf("%s and %s differ in a masked flag bit, want different matches", r, stray)
	}
}
