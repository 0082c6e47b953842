package server

import (
	"fmt"
	"strings"

	"sdnpc"
	"sdnpc/internal/fivetuple"
)

// The wire representations of rules, headers and results. Field matches are
// carried in human-readable form (CIDR prefixes, port ranges, action names)
// so the API is curl-able; omitted match fields are wildcards, mirroring the
// facade's rule builder.

// WireRule is the JSON form of one classification rule.
type WireRule struct {
	// Priority orders the rule within the tenant's table; smaller wins.
	Priority int `json:"priority"`
	// Src and Dst are IPv4 CIDR prefixes; empty or omitted means any address.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// Src6 and Dst6 are IPv6 CIDR prefixes. Constraining one makes the rule
	// IPv6-only; a rule may not constrain both families.
	Src6 string `json:"src6,omitempty"`
	Dst6 string `json:"dst6,omitempty"`
	// SrcPort and DstPort are inclusive ranges; omitted means any port.
	SrcPort *WirePortRange `json:"src_port,omitempty"`
	DstPort *WirePortRange `json:"dst_port,omitempty"`
	// Proto is an exact IP protocol number; omitted means any protocol.
	Proto *uint8 `json:"proto,omitempty"`
	// VLAN is an exact 802.1Q tag match (1..4095); omitted means any tag.
	VLAN *uint16 `json:"vlan,omitempty"`
	// TCPFlags constrains the TCP flags byte; omitted means any flags.
	TCPFlags *WireFlagMatch `json:"tcp_flags,omitempty"`
	// NonTerminating marks a rule whose match contributes its action to a
	// multi-action classification and lets evaluation continue.
	NonTerminating bool `json:"non_terminating,omitempty"`
	// Action is one of forward, drop, modify, group, controller.
	Action string `json:"action"`
	// ActionArg carries the action parameter (egress port, group id, ...).
	ActionArg uint32 `json:"action_arg,omitempty"`
}

// WireFlagMatch is a value/mask match over the TCP flags byte: header bits
// selected by mask must equal the corresponding bits of value.
type WireFlagMatch struct {
	Value uint8 `json:"value"`
	Mask  uint8 `json:"mask"`
}

// WirePortRange is an inclusive port range on the wire.
type WirePortRange struct {
	Lo uint16 `json:"lo"`
	Hi uint16 `json:"hi"`
}

// WireHeader is the JSON form of one packet header. The address family is
// inferred from the address syntax: dotted-quad addresses build an IPv4
// header, colon-separated addresses an IPv6 one (both addresses must agree).
type WireHeader struct {
	SrcIP   string `json:"src_ip"`
	SrcPort uint16 `json:"src_port"`
	DstIP   string `json:"dst_ip"`
	DstPort uint16 `json:"dst_port"`
	Proto   uint8  `json:"proto"`
	// VLAN is the 802.1Q tag, 0..4095; 0 (or omitted) means untagged.
	VLAN uint16 `json:"vlan,omitempty"`
	// TCPFlags is the TCP flags byte; meaningful only for TCP traffic.
	TCPFlags uint8 `json:"tcp_flags,omitempty"`
}

// WireResult is the JSON form of one classification verdict.
type WireResult struct {
	Matched bool `json:"matched"`
	// Priority and the action fields are meaningful only when Matched.
	Priority      int    `json:"priority"`
	Action        string `json:"action,omitempty"`
	ActionArg     uint32 `json:"action_arg,omitempty"`
	LatencyCycles int    `json:"latency_cycles"`
	// Actions is the full ordered action list under multi-action semantics,
	// present only when the classify request asked for it (?all=true): every
	// matching rule's action in priority order, up to and including the
	// first terminating match.
	Actions []WireActionRef `json:"actions,omitempty"`
}

// WireActionRef is one entry of a multi-action classification result.
type WireActionRef struct {
	Priority  int    `json:"priority"`
	Action    string `json:"action"`
	ActionArg uint32 `json:"action_arg,omitempty"`
	Terminal  bool   `json:"terminal"`
}

// decodeRule converts a wire rule into a facade rule through the rule
// builder, so the wire API accepts exactly what the embedded API accepts.
func decodeRule(wr WireRule) (sdnpc.Rule, error) {
	b := sdnpc.NewRule(wr.Priority)
	if wr.Src != "" {
		b = b.From(wr.Src)
	}
	if wr.Dst != "" {
		b = b.To(wr.Dst)
	}
	if wr.SrcPort != nil {
		b = b.SrcPorts(wr.SrcPort.Lo, wr.SrcPort.Hi)
	}
	if wr.DstPort != nil {
		b = b.DstPorts(wr.DstPort.Lo, wr.DstPort.Hi)
	}
	if wr.Src6 != "" {
		b = b.From6(wr.Src6)
	}
	if wr.Dst6 != "" {
		b = b.To6(wr.Dst6)
	}
	if wr.Proto != nil {
		b = b.Proto(*wr.Proto)
	}
	if wr.VLAN != nil {
		b = b.VLAN(*wr.VLAN)
	}
	if wr.TCPFlags != nil {
		b = b.TCPFlags(wr.TCPFlags.Value, wr.TCPFlags.Mask)
	}
	if wr.NonTerminating {
		b = b.NonTerminating()
	}
	switch wr.Action {
	case "forward":
		b = b.Forward(wr.ActionArg)
	case "drop":
		b = b.Drop()
	case "modify":
		b = b.ModifyWith(wr.ActionArg)
	case "group":
		b = b.GroupTo(wr.ActionArg)
	case "controller":
		b = b.Punt()
	case "":
		return sdnpc.Rule{}, fmt.Errorf("server: rule has no action (want forward, drop, modify, group or controller)")
	default:
		return sdnpc.Rule{}, fmt.Errorf("server: unknown action %q (want forward, drop, modify, group or controller)", wr.Action)
	}
	return b.Build()
}

// EncodeRule converts a rule to its wire form, the inverse of the decode
// path: Go clients of the wire API build their request bodies with it.
func EncodeRule(r sdnpc.Rule) WireRule {
	wr := WireRule{
		Priority:  r.Priority,
		Action:    r.Action.String(),
		ActionArg: r.ActionArg,
	}
	if !r.SrcPrefix.IsWildcard() {
		wr.Src = r.SrcPrefix.String()
	}
	if !r.DstPrefix.IsWildcard() {
		wr.Dst = r.DstPrefix.String()
	}
	if !r.SrcPort.IsWildcard() {
		wr.SrcPort = &WirePortRange{Lo: r.SrcPort.Lo, Hi: r.SrcPort.Hi}
	}
	if !r.DstPort.IsWildcard() {
		wr.DstPort = &WirePortRange{Lo: r.DstPort.Lo, Hi: r.DstPort.Hi}
	}
	if !r.Protocol.IsWildcard() {
		proto := r.Protocol.Value
		wr.Proto = &proto
	}
	if !r.Src6.IsWildcard() {
		wr.Src6 = r.Src6.String()
	}
	if !r.Dst6.IsWildcard() {
		wr.Dst6 = r.Dst6.String()
	}
	if !r.VLAN.IsWildcard() {
		tag := r.VLAN.Value & r.VLAN.Mask
		wr.VLAN = &tag
	}
	if !r.TCPFlags.IsWildcard() {
		wr.TCPFlags = &WireFlagMatch{Value: r.TCPFlags.Value, Mask: r.TCPFlags.Mask}
	}
	wr.NonTerminating = r.NonTerminating
	return wr
}

// decodeHeader converts a wire header into a facade header, inferring the
// address family from the address syntax. It is the one converter of wire
// header text, for both classify routes.
func decodeHeader(wh WireHeader) (sdnpc.Header, error) {
	if wh.VLAN > fivetuple.MaxVLAN {
		// A tag outside 802.1Q's 12 bits would alias onto the rule whose
		// tag equals its low 12 bits.
		return sdnpc.Header{}, fmt.Errorf("vlan %d out of range 0..%d", wh.VLAN, fivetuple.MaxVLAN)
	}
	v6 := strings.Contains(wh.SrcIP, ":")
	if v6 != strings.Contains(wh.DstIP, ":") {
		return sdnpc.Header{}, fmt.Errorf("server: header mixes IPv4 and IPv6 addresses (%q, %q)", wh.SrcIP, wh.DstIP)
	}
	var h sdnpc.Header
	var err error
	if v6 {
		h, err = sdnpc.ParseHeader6(wh.SrcIP, wh.SrcPort, wh.DstIP, wh.DstPort, wh.Proto)
	} else {
		h, err = sdnpc.ParseHeader(wh.SrcIP, wh.SrcPort, wh.DstIP, wh.DstPort, wh.Proto)
	}
	if err != nil {
		return sdnpc.Header{}, err
	}
	h.VLAN = wh.VLAN
	h.TCPFlags = wh.TCPFlags
	return h, nil
}

// encodeResult converts a lookup result to its wire form.
func encodeResult(r sdnpc.Result) WireResult {
	wr := WireResult{
		Matched:       r.Matched,
		Priority:      r.Priority,
		LatencyCycles: r.LatencyCycles,
	}
	if r.Matched {
		wr.Action = r.Action.String()
		wr.ActionArg = r.ActionArg
	}
	return wr
}

// encodeActionRefs converts a multi-action result list to its wire form.
func encodeActionRefs(refs []sdnpc.ActionRef) []WireActionRef {
	out := make([]WireActionRef, len(refs))
	for i, ref := range refs {
		out[i] = WireActionRef{
			Priority:  ref.Priority,
			Action:    ref.Action.String(),
			ActionArg: ref.ActionArg,
			Terminal:  ref.Terminal,
		}
	}
	return out
}
