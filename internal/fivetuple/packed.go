package fivetuple

// Verdict is what a lookup answers about the rule it matched: its priority,
// its action and whether a multi-action chain goes on past it.
type Verdict struct {
	Priority       int
	ActionArg      uint32
	Action         Action
	NonTerminating bool
}

// Verdict returns the rule's verdict.
func (r Rule) Verdict() Verdict {
	return Verdict{Priority: r.Priority, Action: r.Action, ActionArg: r.ActionArg, NonTerminating: r.NonTerminating}
}

// PackedRule is a pointer-free 40-byte record of an IPv4 five-tuple rule,
// terminating or not: each match as a plain masked address or range, the
// form a leaf scan or a field search reads, beside the rule's verdict.
type PackedRule struct {
	src, srcMask, dst, dstMask uint32 // canonical addresses and their masks
	srcLo, srcHi, dstLo, dstHi uint16
	proto, protoMask           uint8 // as given, as SameMatch compares them

	Action         Action
	NonTerminating bool
	ActionArg      uint32
	Priority       int
}

// PackRule returns r's record, or false when r needs a dimension the record
// cannot encode: anything in r.Dims() but DimMultiAction.
func PackRule(r *Rule) (PackedRule, bool) {
	if r.Dims()&^DimMultiAction != 0 {
		return PackedRule{}, false
	}
	src, dst := r.SrcPrefix.Canonical(), r.DstPrefix.Canonical()
	return PackedRule{
		src: uint32(src.Addr), srcMask: uint32(src.Mask()),
		dst: uint32(dst.Addr), dstMask: uint32(dst.Mask()),
		srcLo: r.SrcPort.Lo, srcHi: r.SrcPort.Hi,
		dstLo: r.DstPort.Lo, dstHi: r.DstPort.Hi,
		proto: r.Protocol.Value, protoMask: r.Protocol.Mask,
		Action: r.Action, NonTerminating: r.NonTerminating,
		ActionArg: r.ActionArg, Priority: r.Priority,
	}, true
}

// Matches reports whether the header satisfies the rule: exactly
// Rule.Matches of the rule packed. An IPv6 header matches only a rule
// wildcard in both IPv4 addresses.
func (p *PackedRule) Matches(h *Header) bool {
	return uint32(h.SrcIP)&p.srcMask == p.src && uint32(h.DstIP)&p.dstMask == p.dst &&
		p.srcLo <= h.SrcPort && h.SrcPort <= p.srcHi &&
		p.dstLo <= h.DstPort && h.DstPort <= p.dstHi &&
		h.Protocol&p.protoMask == p.proto&p.protoMask &&
		(h.Family != FamilyIPv6 || p.srcMask|p.dstMask == 0)
}

// Same reports whether o has p's matches, as Rule.SameMatch compares them,
// and p's priority: the identity a delete looks an installed rule up by.
func (p *PackedRule) Same(o *PackedRule) bool {
	return p.src == o.src && p.srcMask == o.srcMask && p.dst == o.dst && p.dstMask == o.dstMask &&
		p.srcLo == o.srcLo && p.srcHi == o.srcHi && p.dstLo == o.dstLo && p.dstHi == o.dstHi &&
		p.proto == o.proto && p.protoMask == o.protoMask && p.Priority == o.Priority
}

// Verdict returns the rule's verdict.
func (p *PackedRule) Verdict() Verdict {
	return Verdict{Priority: p.Priority, Action: p.Action, ActionArg: p.ActionArg, NonTerminating: p.NonTerminating}
}

// Range returns the inclusive range of values the rule matches in field f:
// a prefix's addresses, one protocol value or all 256 under the wildcard.
func (p *PackedRule) Range(f Field) (lo, hi uint32) {
	switch f {
	case FieldSrcIP:
		return p.src, p.src | ^p.srcMask
	case FieldDstIP:
		return p.dst, p.dst | ^p.dstMask
	case FieldSrcPort:
		return uint32(p.srcLo), uint32(p.srcHi)
	case FieldDstPort:
		return uint32(p.dstLo), uint32(p.dstHi)
	default:
		if p.protoMask == 0 {
			return 0, 255
		}
		return uint32(p.proto), uint32(p.proto)
	}
}
