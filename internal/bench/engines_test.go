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

	engineRows, err := EngineSweep(w, "")
	if err != nil {
		t.Fatalf("EngineSweep: %v", err)
	}
	throughputRows, err := ThroughputSweep(w, ThroughputOptions{Workers: []int{1}, PacketsPerWorker: 30, BatchSize: 3})
	if err != nil {
		t.Fatalf("ThroughputSweep: %v", err)
	}
	if len(engineRows) != len(names) || len(throughputRows) != len(names) {
		t.Fatalf("got %d engine rows and %d throughput rows, want one per selectable engine (%d)",
			len(engineRows), len(throughputRows), len(names))
	}
	refused, served := 0, 0
	for i, name := range names {
		er, tr := engineRows[i], throughputRows[i]
		if er.Engine != name || tr.Engine != name {
			t.Fatalf("row %d is %q / %q, want %q", i, er.Engine, tr.Engine, name)
		}
		if !engine.Dims(name).Covers(fivetuple.DimIPv6) {
			refused++
			if !errors.Is(er.Refused, core.ErrDimsUnsupported) || !errors.Is(tr.Refused, core.ErrDimsUnsupported) {
				t.Errorf("%s does not declare ipv6: refusals = %v / %v, want ErrDimsUnsupported", name, er.Refused, tr.Refused)
			}
			continue
		}
		served++
		if er.Refused != nil || er.PacketsReplayed != len(w.Trace) || er.VerdictMismatches != 0 {
			t.Errorf("%s declares ipv6: engine row = %+v, want a measured row with 0 mismatches", name, er)
		}
		if tr.Refused != nil || tr.Packets != 30 || tr.MatchedFraction != 1 {
			t.Errorf("%s declares ipv6: throughput row = %+v, want 30 packets all matched", name, tr)
		}
	}
	if refused == 0 || served == 0 {
		t.Fatalf("workload splits the engines %d refused / %d served; it must land on both sides", refused, served)
	}
	for _, out := range []string{RenderEngineSweep(engineRows), RenderThroughput(throughputRows)} {
		if got := strings.Count(out, "refused: "); got != refused {
			t.Errorf("rendered %d refused rows, want %d:\n%s", got, refused, out)
		}
	}
}

func TestEngineSweepRejectsUnknownEngine(t *testing.T) {
	if _, err := EngineSweep(ipv6Workload(), "no-such-engine"); err == nil {
		t.Fatal("sweep accepted an unregistered engine")
	}
}

// TestEngineSweepLabelsModelledColumns pins that the hardware-pipeline
// figures cannot be read as measured software throughput.
func TestEngineSweepLabelsModelledColumns(t *testing.T) {
	out := RenderEngineSweep(nil)
	for _, col := range []string{"model.cycles", "model.Mlookups/s", "model.Gbps@40B"} {
		if !strings.Contains(out, col) {
			t.Errorf("engine sweep header lacks %q:\n%s", col, out)
		}
	}
}
