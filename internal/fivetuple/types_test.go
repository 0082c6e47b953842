package fivetuple

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseIPv4(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    IPv4
		wantErr bool
	}{
		{name: "zero", in: "0.0.0.0", want: 0},
		{name: "loopback", in: "127.0.0.1", want: 0x7F000001},
		{name: "broadcast", in: "255.255.255.255", want: 0xFFFFFFFF},
		{name: "private", in: "192.168.1.42", want: 0xC0A8012A},
		{name: "too few octets", in: "10.0.0", wantErr: true},
		{name: "too many octets", in: "10.0.0.0.1", wantErr: true},
		{name: "octet overflow", in: "10.0.0.256", wantErr: true},
		{name: "not a number", in: "a.b.c.d", wantErr: true},
		{name: "empty", in: "", wantErr: true},
		{name: "leading zero", in: "010.0.0.1", want: 0x0A000001},
		{name: "signed octet", in: "+1.0.0.1", wantErr: true},
		{name: "empty octet", in: "1..2.3", wantErr: true},
		{name: "trailing dot", in: "1.2.3.", wantErr: true},
		{name: "short address, bad octet", in: "256.1.1", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseIPv4(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParseIPv4(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && got != tt.want {
				t.Errorf("ParseIPv4(%q) = %#x, want %#x", tt.in, uint32(got), uint32(tt.want))
			}
			sameAsSplit(t, tt.in)
		})
	}
}

// parseIPv4Split is ParseIPv4 as it was written over strings.Split, kept as
// the reference the allocation-free walk must agree with.
func parseIPv4Split(s string) (IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("fivetuple: invalid IPv4 address %q", s)
	}
	var addr uint32
	for _, part := range parts {
		octet, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("fivetuple: invalid IPv4 octet %q in %q: %w", part, s, err)
		}
		addr = addr<<8 | uint32(octet)
	}
	return IPv4(addr), nil
}

// sameAsSplit fails the test unless ParseIPv4 and the strings.Split
// reference give s the same address, or the same error text.
func sameAsSplit(t *testing.T, s string) {
	t.Helper()
	got, err := ParseIPv4(s)
	want, wantErr := parseIPv4Split(s)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want {
		t.Fatalf("ParseIPv4(%q) = %#x, %v; the Split reference says %#x, %v", s, uint32(got), err, uint32(want), wantErr)
	}
}

// FuzzParseIPv4 holds the walk to the Split reference on arbitrary text.
func FuzzParseIPv4(f *testing.F) {
	for _, seed := range []string{"0.0.0.0", "255.255.255.255", "010.0.0.1", "", ".", "...", "1..2.3", "1.2.3.", ".1.2.3",
		"+1.0.0.1", "-1.0.0.1", "256.1.1", "1.2.3.4.5", "1.2.3.4 ", "0x1.0.0.1", "1_0.0.0.1"} {
		f.Add(seed)
	}
	f.Fuzz(sameAsSplit)
}

func TestParseIPv4ZeroAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseIPv4("192.168.100.200") }); n != 0 {
		t.Fatalf("ParseIPv4 of a valid address allocates %.1f objects, want 0", n)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		addr := IPv4(v)
		back, err := ParseIPv4(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4Segments(t *testing.T) {
	addr := MustParseIPv4("10.20.30.40")
	if got, want := addr.High16(), uint16(0x0A14); got != want {
		t.Errorf("High16() = %#x, want %#x", got, want)
	}
	if got, want := addr.Low16(), uint16(0x1E28); got != want {
		t.Errorf("Low16() = %#x, want %#x", got, want)
	}
	f := func(v uint32) bool {
		a := IPv4(v)
		return uint32(a.High16())<<16|uint32(a.Low16()) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsePrefix(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    Prefix
		wantErr bool
	}{
		{name: "slash 8", in: "10.0.0.0/8", want: Prefix{Addr: 0x0A000000, Len: 8}},
		{name: "slash 0", in: "0.0.0.0/0", want: Prefix{Addr: 0, Len: 0}},
		{name: "slash 32", in: "1.2.3.4/32", want: Prefix{Addr: 0x01020304, Len: 32}},
		{name: "bare address defaults to 32", in: "1.2.3.4", want: Prefix{Addr: 0x01020304, Len: 32}},
		{name: "length too large", in: "1.2.3.4/33", wantErr: true},
		{name: "bad address", in: "1.2.3/8", wantErr: true},
		{name: "bad length", in: "1.2.3.4/x", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParsePrefix(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParsePrefix(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && got != tt.want {
				t.Errorf("ParsePrefix(%q) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

func TestPrefixMatches(t *testing.T) {
	tests := []struct {
		name   string
		prefix string
		addr   string
		want   bool
	}{
		{name: "inside /8", prefix: "10.0.0.0/8", addr: "10.200.3.4", want: true},
		{name: "outside /8", prefix: "10.0.0.0/8", addr: "11.0.0.1", want: false},
		{name: "wildcard matches anything", prefix: "0.0.0.0/0", addr: "203.0.113.9", want: true},
		{name: "exact match", prefix: "1.2.3.4/32", addr: "1.2.3.4", want: true},
		{name: "exact mismatch", prefix: "1.2.3.4/32", addr: "1.2.3.5", want: false},
		{name: "host bits in prefix ignored", prefix: "10.9.9.9/8", addr: "10.1.2.3", want: true},
		{name: "boundary /31", prefix: "192.0.2.0/31", addr: "192.0.2.1", want: true},
		{name: "boundary /31 miss", prefix: "192.0.2.0/31", addr: "192.0.2.2", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := MustParsePrefix(tt.prefix)
			a := MustParseIPv4(tt.addr)
			if got := p.Matches(a); got != tt.want {
				t.Errorf("%s.Matches(%s) = %v, want %v", p, a, got, tt.want)
			}
		})
	}
}

func TestPrefixContainsOverlaps(t *testing.T) {
	p8 := MustParsePrefix("10.0.0.0/8")
	p16 := MustParsePrefix("10.1.0.0/16")
	p16other := MustParsePrefix("11.1.0.0/16")
	if !p8.Contains(p16) {
		t.Errorf("%s should contain %s", p8, p16)
	}
	if p16.Contains(p8) {
		t.Errorf("%s should not contain %s", p16, p8)
	}
	if p8.Contains(p16other) {
		t.Errorf("%s should not contain %s", p8, p16other)
	}
	if !p8.Overlaps(p16) || !p16.Overlaps(p8) {
		t.Errorf("%s and %s should overlap symmetrically", p8, p16)
	}
	if p16.Overlaps(p16other) {
		t.Errorf("%s and %s should not overlap", p16, p16other)
	}
}

func TestPrefixContainsImpliesMatches(t *testing.T) {
	f := func(addr uint32, rawLenA, rawLenB uint8) bool {
		lenA := rawLenA % 33
		lenB := rawLenB % 33
		a := Prefix{Addr: IPv4(addr), Len: lenA}.Canonical()
		b := Prefix{Addr: IPv4(addr), Len: lenB}.Canonical()
		// The shorter (or equal) prefix derived from the same address always
		// contains the longer one.
		if lenA <= lenB {
			return a.Contains(b)
		}
		return b.Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixSegments(t *testing.T) {
	tests := []struct {
		name       string
		prefix     string
		wantHi     uint16
		wantHiBits uint8
		wantLo     uint16
		wantLoBits uint8
	}{
		{name: "/24 splits 16+8", prefix: "192.168.7.0/24", wantHi: 0xC0A8, wantHiBits: 16, wantLo: 0x0700, wantLoBits: 8},
		{name: "/8 stays high", prefix: "10.0.0.0/8", wantHi: 0x0A00, wantHiBits: 8, wantLo: 0, wantLoBits: 0},
		{name: "/16 exactly high", prefix: "172.16.0.0/16", wantHi: 0xAC10, wantHiBits: 16, wantLo: 0, wantLoBits: 0},
		{name: "/32 both full", prefix: "1.2.3.4/32", wantHi: 0x0102, wantHiBits: 16, wantLo: 0x0304, wantLoBits: 16},
		{name: "/0 wildcard", prefix: "0.0.0.0/0", wantHi: 0, wantHiBits: 0, wantLo: 0, wantLoBits: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := MustParsePrefix(tt.prefix)
			hi, hiBits := p.HighSegment()
			lo, loBits := p.LowSegment()
			if hi != tt.wantHi || hiBits != tt.wantHiBits {
				t.Errorf("HighSegment() = (%#x, %d), want (%#x, %d)", hi, hiBits, tt.wantHi, tt.wantHiBits)
			}
			if lo != tt.wantLo || loBits != tt.wantLoBits {
				t.Errorf("LowSegment() = (%#x, %d), want (%#x, %d)", lo, loBits, tt.wantLo, tt.wantLoBits)
			}
		})
	}
}

func TestParsePortRange(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    PortRange
		wantErr bool
	}{
		{name: "wildcard", in: "0 : 65535", want: PortRange{0, 65535}},
		{name: "exact via range", in: "80 : 80", want: PortRange{80, 80}},
		{name: "single value", in: "443", want: PortRange{443, 443}},
		{name: "range", in: "1024 : 2048", want: PortRange{1024, 2048}},
		{name: "no spaces", in: "5:10", want: PortRange{5, 10}},
		{name: "inverted", in: "10 : 5", wantErr: true},
		{name: "overflow", in: "0 : 70000", wantErr: true},
		{name: "garbage", in: "a : b", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParsePortRange(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParsePortRange(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && got != tt.want {
				t.Errorf("ParsePortRange(%q) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

func TestPortRangePredicates(t *testing.T) {
	wild := WildcardPortRange()
	if !wild.IsWildcard() || wild.IsExact() {
		t.Errorf("wildcard range misclassified: %+v", wild)
	}
	exact := ExactPort(8080)
	if !exact.IsExact() || exact.IsWildcard() {
		t.Errorf("exact range misclassified: %+v", exact)
	}
	if got, want := exact.Width(), uint32(1); got != want {
		t.Errorf("exact.Width() = %d, want %d", got, want)
	}
	if got, want := wild.Width(), uint32(65536); got != want {
		t.Errorf("wild.Width() = %d, want %d", got, want)
	}
	r := PortRange{Lo: 100, Hi: 200}
	if !r.Contains(PortRange{Lo: 150, Hi: 160}) {
		t.Error("range should contain sub-range")
	}
	if r.Contains(PortRange{Lo: 150, Hi: 250}) {
		t.Error("range should not contain straddling range")
	}
	if !r.Overlaps(PortRange{Lo: 150, Hi: 250}) {
		t.Error("range should overlap straddling range")
	}
	if r.Overlaps(PortRange{Lo: 300, Hi: 400}) {
		t.Error("disjoint ranges should not overlap")
	}
}

func TestPortRangeMatchesProperty(t *testing.T) {
	f := func(lo, hi, p uint16) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		r := PortRange{Lo: lo, Hi: hi}
		return r.Matches(p) == (p >= lo && p <= hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseProtocolMatch(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    ProtocolMatch
		wantErr bool
	}{
		{name: "tcp", in: "0x06/0xFF", want: ProtocolMatch{Value: 6, Mask: 0xFF}},
		{name: "wildcard", in: "0x00/0x00", want: ProtocolMatch{Value: 0, Mask: 0}},
		{name: "decimal exact", in: "17", want: ProtocolMatch{Value: 17, Mask: 0xFF}},
		{name: "overflow", in: "0x1FF/0xFF", wantErr: true},
		{name: "garbage", in: "tcp", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseProtocolMatch(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParseProtocolMatch(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && got != tt.want {
				t.Errorf("ParseProtocolMatch(%q) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

func TestProtocolMatchSemantics(t *testing.T) {
	tcp := ExactProtocol(ProtoTCP)
	if !tcp.Matches(ProtoTCP) || tcp.Matches(ProtoUDP) {
		t.Errorf("exact protocol match misbehaved: %+v", tcp)
	}
	wild := WildcardProtocol()
	for _, v := range []uint8{0, 1, 6, 17, 255} {
		if !wild.Matches(v) {
			t.Errorf("wildcard protocol should match %d", v)
		}
	}
	if !tcp.IsExact() || tcp.IsWildcard() {
		t.Errorf("exact protocol misclassified: %+v", tcp)
	}
	if !wild.IsWildcard() || wild.IsExact() {
		t.Errorf("wildcard protocol misclassified: %+v", wild)
	}
}

func TestFieldString(t *testing.T) {
	names := map[Field]string{
		FieldSrcIP:    "srcIP",
		FieldDstIP:    "dstIP",
		FieldSrcPort:  "srcPort",
		FieldDstPort:  "dstPort",
		FieldProtocol: "protocol",
	}
	for f, want := range names {
		if got := f.String(); got != want {
			t.Errorf("Field(%d).String() = %q, want %q", f, got, want)
		}
	}
	if got := Field(99).String(); got != "Field(99)" {
		t.Errorf("unknown field String() = %q", got)
	}
	if got := Action(200).String(); got != "Action(200)" {
		t.Errorf("unknown action String() = %q", got)
	}
	if len(Fields()) != NumFields {
		t.Errorf("Fields() returned %d fields, want %d", len(Fields()), NumFields)
	}
}
