package bench

import (
	"fmt"
	"text/tabwriter"

	"sdnpc/internal/core"
	"sdnpc/internal/engine"
)

// EngineConfig returns the classifier configuration that serves lookups
// with the named registered engine, whichever tier it belongs to: field
// engines select the IP-segment algorithm, whole-packet engines select the
// packet tier. Unknown names are handed to the field-engine configuration
// so core.New reports the error.
func EngineConfig(name string) core.Config {
	cfg := core.DefaultConfig()
	cfg.SetEngine(name)
	return cfg
}

// CachedEngineConfig is EngineConfig with the microflow cache enabled at the
// given geometry (shards <= 0 selects the cache's default shard count).
func CachedEngineConfig(name string, shards, capacity int) core.Config {
	cfg := EngineConfig(name)
	cfg.CacheShards = shards
	cfg.CacheCapacity = capacity
	return cfg
}

// EngineRow is one row of the engine sweep: the architecture evaluated with
// one registered engine — field tier or whole-packet tier — on a shared
// workload. For a field engine the memory columns report the IP-segment
// node storage; for a packet engine they report the precomputed multi-field
// structure (the Table I memory figure).
type EngineRow struct {
	Engine             string
	Tier               string
	AvgFieldAccesses   float64
	AvgLatencyCycles   float64
	LookupsPerSecMega  float64
	ThroughputGbps40   float64
	EngineMemoryKbit   float64
	ProvisionedKbit    float64
	RuleCapacity       int
	VerdictMismatches  int
	PacketsReplayed    int
	InitiationInterval int
	// Refused, when non-nil, is why the engine could not be built or
	// declined the rule set (core.New / InstallRuleSet error); every
	// measurement above is then zero.
	Refused error
}

// EngineSweep evaluates every selectable engine of both tiers on the
// workload: each engine serves a fresh classifier, the full rule set is
// installed, the trace is replayed and every verdict is checked against the
// linear reference classifier. An engine that refuses the workload (build
// blow-up, unsupported rule dimensions) yields a Refused row and the sweep
// continues. A non-empty only argument restricts the sweep to that engine;
// an unknown name is an error.
func EngineSweep(w Workload, only string) ([]EngineRow, error) {
	names := engine.SelectableNames()
	if only != "" {
		if _, ok := engine.Selectable(only); !ok {
			return nil, fmt.Errorf("bench: unknown engine %q (selectable: %v)", only, names)
		}
		names = []string{only}
	}

	rows := make([]EngineRow, 0, len(names))
	for _, name := range names {
		tier := "field"
		if isPacket, _ := engine.Selectable(name); isPacket {
			tier = "packet"
		}
		c, err := core.New(EngineConfig(name))
		if err == nil {
			_, err = c.InstallRuleSet(w.RuleSet)
		}
		if err != nil {
			rows = append(rows, EngineRow{Engine: name, Tier: tier, Refused: err})
			continue
		}
		c.ResetStats()
		model := c.Report()
		mismatches, cycles := 0, 0
		for _, h := range w.Trace {
			wantIdx, wantOK := w.RuleSet.Classify(h)
			got := c.Lookup(h)
			if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
				mismatches++
			}
			cycles += LookupCycles(model, got)
		}
		rep := c.Report()
		report := rep.Memory
		p := Pipeline(model)
		row := EngineRow{
			Engine:             name,
			Tier:               tier,
			AvgFieldAccesses:   rep.Stats.AverageFieldAccesses(),
			AvgLatencyCycles:   float64(cycles) / float64(len(w.Trace)),
			LookupsPerSecMega:  p.LookupsPerSecond() / 1e6,
			ThroughputGbps40:   p.ThroughputGbps(40),
			EngineMemoryKbit:   Kbit(report.IPEngineUsedBits),
			ProvisionedKbit:    Kbit(report.IPEngineProvisionedBits),
			RuleCapacity:       c.RuleCapacity(),
			VerdictMismatches:  mismatches,
			PacketsReplayed:    len(w.Trace),
			InitiationInterval: p.BottleneckInterval(),
		}
		if tier == "packet" {
			// Software-precomputed structures have no fixed provisioning; the
			// used size is the Table I memory figure.
			row.EngineMemoryKbit = Kbit(report.PacketEngineUsedBits)
			row.ProvisionedKbit = Kbit(report.PacketEngineUsedBits)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderEngineSweep renders the sweep in the row/column style of the paper's
// tables, right-aligned so each header label ends over its values. Every
// column cell is tab-terminated; the free cell after them is empty on a
// measured row and carries the reason on a refused one, whose mismatches
// column reads "refused:".
func RenderEngineSweep(rows []EngineRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		if r.Refused != nil {
			out = append(out, []string{r.Engine, r.Tier, "-", "-", "-", "-", "-", "-", "-", "refused:", " " + r.Refused.Error()})
			continue
		}
		out = append(out, []string{
			r.Engine, r.Tier,
			fmt.Sprintf("%.2f", r.AvgFieldAccesses), fmt.Sprintf("%.1f", r.AvgLatencyCycles),
			fmt.Sprintf("%.1f", r.LookupsPerSecMega), fmt.Sprintf("%.2f", r.ThroughputGbps40),
			fmt.Sprintf("%.1f", r.EngineMemoryKbit), fmt.Sprintf("%.1f", r.ProvisionedKbit),
			fmt.Sprintf("%d", r.RuleCapacity), fmt.Sprintf("%d/%d", r.VerdictMismatches, r.PacketsReplayed), "",
		})
	}
	return renderTable("Engine sweep — every selectable engine (field and whole-packet tiers) on the same workload",
		tabwriter.AlignRight,
		[]string{"engine", "tier", "accesses/pkt", "model.cycles", "model.Mlookups/s", "model.Gbps@40B",
			"mem Kbit", "prov Kbit", "capacity", "mismatches", ""}, out)
}
