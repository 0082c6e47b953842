package bench

import (
	"errors"
	"strings"
	"testing"

	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// ipv6Workload holds one IPv6 rule above an IPv4 rule and a default, with
// one header per rule: engines that do not declare DimIPv6 must refuse the
// install, the others must serve it.
func ipv6Workload() Workload {
	wild := fivetuple.Rule{SrcPort: fivetuple.WildcardPortRange(), DstPort: fivetuple.WildcardPortRange()}
	v6, v4, def := wild, wild, wild
	v6.Src6 = fivetuple.MustParsePrefix6("2001:db8::/32")
	v4.SrcPrefix = fivetuple.MustParsePrefix("10.0.0.0/8")
	v4.Priority = 1
	def.Priority = 2
	return Workload{
		RuleSet: fivetuple.NewRuleSet("one-ipv6-rule", []fivetuple.Rule{v6, v4, def}),
		Trace: []fivetuple.Header{
			{Family: fivetuple.FamilyIPv6, SrcIP6: fivetuple.MustParseIPv6("2001:db8::1"), Protocol: 6},
			{SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), Protocol: 6},
			{SrcIP: fivetuple.MustParseIPv4("192.0.2.1"), Protocol: 17},
		},
	}
}

// TestSweepsSurviveRefusal pins that one engine's honest refusal costs the
// sweep that engine's row, not every other engine's measurement.
func TestSweepsSurviveRefusal(t *testing.T) {
	w := ipv6Workload()
	names := engine.SelectableNames()

	rows, err := EngineSweep(w, "")
	if err != nil {
		t.Fatalf("EngineSweep: %v", err)
	}
	if len(rows) != len(names) {
		t.Fatalf("got %d engine rows, want one per selectable engine (%d)", len(rows), len(names))
	}
	refused, served := 0, 0
	for i, name := range names {
		r := rows[i]
		if r.Engine != name {
			t.Fatalf("row %d is %q, want %q", i, r.Engine, name)
		}
		if !engine.Dims(name).Covers(fivetuple.DimIPv6) {
			refused++
			if !errors.Is(r.Refused, core.ErrDimsUnsupported) {
				t.Errorf("%s does not declare ipv6: refusal = %v, want ErrDimsUnsupported", name, r.Refused)
			}
			continue
		}
		served++
		if r.Refused != nil || r.PacketsReplayed != len(w.Trace) || r.VerdictMismatches != 0 {
			t.Errorf("%s declares ipv6: engine row = %+v, want a measured row with 0 mismatches", name, r)
		}
	}
	if refused == 0 || served == 0 {
		t.Fatalf("workload splits the engines %d refused / %d served; it must land on both sides", refused, served)
	}
	out := RenderEngineSweep(rows)
	if got := strings.Count(out, "refused: "); got != refused {
		t.Errorf("rendered %d refused rows, want %d:\n%s", got, refused, out)
	}
	if got, want := strings.Count(out, "\n"), 2+len(names); got != want {
		t.Errorf("rendered %d lines, want title + header + one per engine (%d):\n%s", got, want, out)
	}
}

func TestEngineSweepRejectsUnknownEngine(t *testing.T) {
	if _, err := EngineSweep(ipv6Workload(), "no-such-engine"); err == nil {
		t.Fatal("sweep accepted an unregistered engine")
	}
}

// TestEngineSweepLabelsModelledColumns pins that the hardware-pipeline
// figures cannot be read as measured software throughput, and that every
// header label ends at the column where the values below it end, on
// measured and refused rows alike.
func TestEngineSweepLabelsModelledColumns(t *testing.T) {
	rows, err := EngineSweep(ipv6Workload(), "")
	if err != nil {
		t.Fatalf("EngineSweep: %v", err)
	}
	out := RenderEngineSweep(rows)
	for _, col := range []string{"model.cycles", "model.Mlookups/s", "model.Gbps@40B"} {
		if !strings.Contains(out, col) {
			t.Errorf("engine sweep header lacks %q:\n%s", col, out)
		}
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	header, values := lines[1], lines[2:]
	from := 0
	for _, label := range []string{"engine", "tier", "accesses/pkt", "model.cycles", "model.Mlookups/s",
		"model.Gbps@40B", "mem Kbit", "prov Kbit", "capacity", "mismatches"} {
		i := strings.Index(header[from:], label)
		if i < 0 {
			t.Fatalf("header lacks %q after column %d: %q", label, from, header)
		}
		end := from + i + len(label)
		from = end
		for _, line := range values {
			endsHere := end <= len(line) && line[end-1] != ' ' && (end == len(line) || line[end] == ' ')
			if !endsHere {
				t.Errorf("header label %q ends at column %d; the value below it does not:\n%s\n%s", label, end, header, line)
				break
			}
		}
	}
}
