package fivetuple

import "fmt"

// Action is the forwarding action attached to a rule, mirroring the OpenFlow
// actions mentioned by the paper: forwarding, modification and redirection to
// a group table.
type Action uint8

// Supported rule actions.
const (
	// ActionForward forwards the packet on the port carried by ActionArg.
	ActionForward Action = iota + 1
	// ActionDrop silently discards the packet.
	ActionDrop
	// ActionModify rewrites a header field before forwarding.
	ActionModify
	// ActionGroup redirects the packet to a group table entry.
	ActionGroup
	// ActionController punts the packet to the SDN controller.
	ActionController
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionForward:
		return "forward"
	case ActionDrop:
		return "drop"
	case ActionModify:
		return "modify"
	case ActionGroup:
		return "group"
	case ActionController:
		return "controller"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// Rule is a single 5-tuple classification rule.
//
// Priority follows filter-set convention: priority 0 is the highest priority
// (the first rule in the file). The classifier must return the matching rule
// with the smallest Priority value — the Highest Priority Matching Rule.
type Rule struct {
	SrcPrefix Prefix
	DstPrefix Prefix
	SrcPort   PortRange
	DstPort   PortRange
	Protocol  ProtocolMatch

	// Src6 and Dst6 are optional IPv6 prefix matches. A rule with a
	// non-wildcard IPv6 prefix only matches FamilyIPv6 headers; a rule with
	// a non-wildcard IPv4 prefix only matches FamilyIPv4 headers. A rule
	// wildcard in both families matches headers of either family.
	Src6 Prefix6
	Dst6 Prefix6
	// VLAN optionally matches the 802.1Q tag; the zero value is the
	// wildcard.
	VLAN VLANMatch
	// TCPFlags optionally matches the TCP flags byte; the zero value is the
	// wildcard.
	TCPFlags TCPFlagMatch

	// Priority is the rule's position in the filter set; smaller is higher
	// priority.
	Priority int
	// Action is the forwarding action applied when this rule is the HPMR.
	Action Action
	// ActionArg carries the action parameter (egress port, group id, ...).
	ActionArg uint32
	// NonTerminating marks a rule that contributes its action to the
	// ordered multi-action result (LookupAll) without stopping collection —
	// mirror/count chains stack on top of a later terminating verdict. The
	// first-match verdict (Lookup) still reports the HPMR regardless.
	NonTerminating bool
}

// Matches reports whether the header satisfies every match dimension of the
// rule, including the optional IPv6/VLAN/TCP-flag extensions.
func (r Rule) Matches(h Header) bool {
	if h.Family == FamilyIPv6 {
		if !r.SrcPrefix.IsWildcard() || !r.DstPrefix.IsWildcard() {
			return false
		}
		if !r.Src6.Matches(h.SrcIP6) || !r.Dst6.Matches(h.DstIP6) {
			return false
		}
	} else {
		if !r.Src6.IsWildcard() || !r.Dst6.IsWildcard() {
			return false
		}
		if !r.SrcPrefix.Matches(h.SrcIP) || !r.DstPrefix.Matches(h.DstIP) {
			return false
		}
	}
	return r.SrcPort.Matches(h.SrcPort) &&
		r.DstPort.Matches(h.DstPort) &&
		r.Protocol.Matches(h.Protocol) &&
		r.VLAN.Matches(h.VLAN) &&
		r.TCPFlags.Matches(h.TCPFlags)
}

// SameMatch reports whether two rules have the same matches: prefixes, VLAN
// and TCP-flag matches in canonical form, ports and the protocol match as
// given. Priority, action and termination are not compared: this is the
// identity the update plane locates an installed rule by.
func (r Rule) SameMatch(o Rule) bool {
	return r.SrcPrefix.Canonical() == o.SrcPrefix.Canonical() &&
		r.DstPrefix.Canonical() == o.DstPrefix.Canonical() &&
		r.SrcPort == o.SrcPort &&
		r.DstPort == o.DstPort &&
		r.Protocol == o.Protocol &&
		r.Src6.Canonical() == o.Src6.Canonical() &&
		r.Dst6.Canonical() == o.Dst6.Canonical() &&
		r.VLAN.Mask == o.VLAN.Mask && r.VLAN.Matches(o.VLAN.Value) &&
		r.TCPFlags.Mask == o.TCPFlags.Mask && r.TCPFlags.Matches(o.TCPFlags.Value)
}

// Wildcard returns a rule matching every packet, with the given priority and
// action. Filter sets conventionally end with such a default rule.
func Wildcard(priority int, action Action) Rule {
	return Rule{
		SrcPort:  WildcardPortRange(),
		DstPort:  WildcardPortRange(),
		Priority: priority,
		Action:   action,
	}
}

// String renders the rule in ClassBench syntax (without the leading '@').
// Extension dimensions, when present, are appended as "key=value" suffixes so
// classic five-tuple rules keep their exact legacy rendering.
func (r Rule) String() string {
	s := fmt.Sprintf("%s %s %s %s %s", r.SrcPrefix, r.DstPrefix, r.SrcPort, r.DstPort, r.Protocol)
	if !r.Src6.IsWildcard() || !r.Dst6.IsWildcard() {
		s += fmt.Sprintf(" src6=%s dst6=%s", r.Src6, r.Dst6)
	}
	if !r.VLAN.IsWildcard() {
		s += fmt.Sprintf(" vlan=%s", r.VLAN)
	}
	if !r.TCPFlags.IsWildcard() {
		s += fmt.Sprintf(" flags=%s", r.TCPFlags)
	}
	if r.NonTerminating {
		s += " non-terminating"
	}
	return s
}

// FieldKey returns a canonical string key identifying the rule's match value
// in the given dimension. Two rules share a key exactly when their field
// matches are equivalent, which is the property the label method relies on to
// count and deduplicate unique rule fields.
func (r Rule) FieldKey(f Field) string {
	switch f {
	case FieldSrcIP:
		return r.SrcPrefix.Canonical().String()
	case FieldDstIP:
		return r.DstPrefix.Canonical().String()
	case FieldSrcPort:
		return r.SrcPort.String()
	case FieldDstPort:
		return r.DstPort.String()
	case FieldProtocol:
		if r.Protocol.IsWildcard() {
			return "*"
		}
		return r.Protocol.String()
	default:
		return ""
	}
}
