package sdnpc

import (
	"fmt"

	"sdnpc/internal/fivetuple"
)

// RuleBuilder assembles one classification rule fluently:
//
//	rule, err := sdnpc.NewRule(0).
//		From("10.0.0.0/8").To("203.0.113.0/24").
//		DstPort(443).Proto(sdnpc.TCP).
//		Forward(1).Build()
//
// Unset fields stay wildcards. Errors accumulate and surface at Build.
type RuleBuilder struct {
	r   fivetuple.Rule
	err error
}

// NewRule starts a rule with the given priority (smaller is higher priority)
// and every field a wildcard. The default action is Drop.
func NewRule(priority int) *RuleBuilder {
	return &RuleBuilder{r: fivetuple.Wildcard(priority, fivetuple.ActionDrop)}
}

func (b *RuleBuilder) fail(err error) *RuleBuilder {
	if b.err == nil {
		b.err = err
	}
	return b
}

// From sets the source prefix from CIDR notation.
func (b *RuleBuilder) From(cidr string) *RuleBuilder {
	p, err := fivetuple.ParsePrefix(cidr)
	if err != nil {
		return b.fail(fmt.Errorf("sdnpc: source prefix: %w", err))
	}
	b.r.SrcPrefix = p
	return b
}

// To sets the destination prefix from CIDR notation.
func (b *RuleBuilder) To(cidr string) *RuleBuilder {
	p, err := fivetuple.ParsePrefix(cidr)
	if err != nil {
		return b.fail(fmt.Errorf("sdnpc: destination prefix: %w", err))
	}
	b.r.DstPrefix = p
	return b
}

// SrcPort matches one exact source port.
func (b *RuleBuilder) SrcPort(port uint16) *RuleBuilder {
	b.r.SrcPort = fivetuple.ExactPort(port)
	return b
}

// SrcPorts matches an inclusive source-port range.
func (b *RuleBuilder) SrcPorts(lo, hi uint16) *RuleBuilder {
	if lo > hi {
		return b.fail(fmt.Errorf("sdnpc: inverted source port range [%d,%d]", lo, hi))
	}
	b.r.SrcPort = fivetuple.PortRange{Lo: lo, Hi: hi}
	return b
}

// DstPort matches one exact destination port.
func (b *RuleBuilder) DstPort(port uint16) *RuleBuilder {
	b.r.DstPort = fivetuple.ExactPort(port)
	return b
}

// DstPorts matches an inclusive destination-port range.
func (b *RuleBuilder) DstPorts(lo, hi uint16) *RuleBuilder {
	if lo > hi {
		return b.fail(fmt.Errorf("sdnpc: inverted destination port range [%d,%d]", lo, hi))
	}
	b.r.DstPort = fivetuple.PortRange{Lo: lo, Hi: hi}
	return b
}

// Proto matches one exact IP protocol number (TCP, UDP, ...).
func (b *RuleBuilder) Proto(protocol uint8) *RuleBuilder {
	b.r.Protocol = fivetuple.ExactProtocol(protocol)
	return b
}

// From6 sets the IPv6 source prefix from CIDR notation ("2001:db8::/32").
// Constraining an IPv6 prefix makes the rule IPv6-only; its IPv4 prefixes
// must stay wildcards (Build rejects rules constraining both families).
func (b *RuleBuilder) From6(cidr string) *RuleBuilder {
	p, err := fivetuple.ParsePrefix6(cidr)
	if err != nil {
		return b.fail(fmt.Errorf("sdnpc: IPv6 source prefix: %w", err))
	}
	b.r.Src6 = p
	return b
}

// To6 sets the IPv6 destination prefix from CIDR notation.
func (b *RuleBuilder) To6(cidr string) *RuleBuilder {
	p, err := fivetuple.ParsePrefix6(cidr)
	if err != nil {
		return b.fail(fmt.Errorf("sdnpc: IPv6 destination prefix: %w", err))
	}
	b.r.Dst6 = p
	return b
}

// VLAN matches one exact 802.1Q VLAN tag (1..4095).
func (b *RuleBuilder) VLAN(tag uint16) *RuleBuilder {
	if tag > fivetuple.MaxVLAN {
		return b.fail(fmt.Errorf("sdnpc: VLAN tag %d exceeds %d", tag, fivetuple.MaxVLAN))
	}
	b.r.VLAN = fivetuple.ExactVLAN(tag)
	return b
}

// TCPFlags constrains the TCP flags byte: header bits selected by mask must
// equal the corresponding bits of value. TCPFlags(TCPSyn, TCPSyn|TCPAck)
// matches SYNs that are not SYN-ACKs. Value bits outside the mask constrain
// nothing and are dropped, so one match has one identity (Rule.SameMatch):
// a rule deletes and lists as what it was installed as, and a zero mask is
// the wildcard.
func (b *RuleBuilder) TCPFlags(value, mask uint8) *RuleBuilder {
	b.r.TCPFlags = fivetuple.TCPFlagMatch{Value: value & mask, Mask: mask}
	return b
}

// NonTerminating marks the rule as non-terminating: in a LookupAll a match
// contributes its action and evaluation continues to lower-priority rules.
// Plain Lookup still reports the best match's verdict.
func (b *RuleBuilder) NonTerminating() *RuleBuilder {
	b.r.NonTerminating = true
	return b
}

// Forward sets the action to forward on the given egress port.
func (b *RuleBuilder) Forward(egressPort uint32) *RuleBuilder {
	b.r.Action = fivetuple.ActionForward
	b.r.ActionArg = egressPort
	return b
}

// Drop sets the action to drop.
func (b *RuleBuilder) Drop() *RuleBuilder {
	b.r.Action = fivetuple.ActionDrop
	b.r.ActionArg = 0
	return b
}

// Punt sets the action to punt the packet to the SDN controller.
func (b *RuleBuilder) Punt() *RuleBuilder {
	b.r.Action = fivetuple.ActionController
	b.r.ActionArg = 0
	return b
}

// ModifyWith sets the action to modify with the given argument.
func (b *RuleBuilder) ModifyWith(arg uint32) *RuleBuilder {
	b.r.Action = fivetuple.ActionModify
	b.r.ActionArg = arg
	return b
}

// GroupTo sets the action to redirect to the given group table entry.
func (b *RuleBuilder) GroupTo(group uint32) *RuleBuilder {
	b.r.Action = fivetuple.ActionGroup
	b.r.ActionArg = group
	return b
}

// Build returns the assembled rule or the first accumulated error.
func (b *RuleBuilder) Build() (Rule, error) {
	if b.err != nil {
		return Rule{}, b.err
	}
	v4 := !b.r.SrcPrefix.IsWildcard() || !b.r.DstPrefix.IsWildcard()
	v6 := !b.r.Src6.IsWildcard() || !b.r.Dst6.IsWildcard()
	if v4 && v6 {
		return Rule{}, fmt.Errorf("sdnpc: rule constrains both IPv4 and IPv6 prefixes and can match no header")
	}
	return b.r, nil
}

// MustBuild is like Build but panics on error.
func (b *RuleBuilder) MustBuild() Rule {
	r, err := b.Build()
	if err != nil {
		panic(err)
	}
	return r
}

// WildcardRule returns a rule matching every packet, with the given priority
// and action — the conventional default rule at the end of a filter set.
func WildcardRule(priority int, action Action) Rule {
	return fivetuple.Wildcard(priority, action)
}
