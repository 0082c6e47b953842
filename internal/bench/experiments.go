package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"sdnpc/internal/algo/dcfl"
	"sdnpc/internal/algo/hypercuts"
	"sdnpc/internal/algo/portreg"
	"sdnpc/internal/algo/rfc"
	"sdnpc/internal/classbench"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fieldtier"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// Mbit converts bits to the megabit figures used by Tables I and VII.
func Mbit(bits int) float64 { return float64(bits) / (1 << 20) }

// Kbit converts bits to the kilobit figures used by Table VI.
func Kbit(bits int) float64 { return float64(bits) / 1024 }

// renderTable renders rows with a tab writer; every row is a slice of cells.
// flags are tabwriter's: 0 left-aligns the columns, tabwriter.AlignRight
// right-aligns them. A line's last cell is not tab-terminated, so it sits
// outside the columns.
func renderTable(title string, flags uint, header []string, rows [][]string) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', flags)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	_ = w.Flush()
	return sb.String()
}

// Workload is a generated filter set plus header trace shared by several
// experiments.
type Workload struct {
	RuleSet *fivetuple.RuleSet
	Trace   []fivetuple.Header
}

// NewWorkload generates the evaluation workload: an acl1-style filter set of
// the given size and a ClassBench-style trace of matching headers.
func NewWorkload(class classbench.Class, size classbench.Size, packets int) Workload {
	rs := classbench.Generate(classbench.StandardConfig(class, size))
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: packets, Seed: 99, MatchFraction: 0.9, Locality: 0.3,
	})
	return Workload{RuleSet: rs, Trace: trace}
}

// ---------------------------------------------------------------------------
// Table I — lookup performance of algorithm approaches
// ---------------------------------------------------------------------------

// Table1Row is one row of Table I.
type Table1Row struct {
	Algorithm     string
	AvgAccesses   float64
	MemorySpaceMb float64
	PaperAccesses float64
	PaperMemoryMb float64
}

// Table1 measures the average lookup memory accesses and memory space of
// HyperCuts, RFC, DCFL and the Option 1/2 single-field combinations on the
// given workload, alongside the values the paper reports.
func Table1(w Workload) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 5)

	hc, err := hypercuts.Build(w.RuleSet, hypercuts.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var hcAccesses uint64
	for _, h := range w.Trace {
		_, _, a := hc.Classify(h)
		hcAccesses += uint64(a)
	}
	rows = append(rows, Table1Row{
		Algorithm: "HyperCuts", AvgAccesses: float64(hcAccesses) / float64(len(w.Trace)),
		MemorySpaceMb: Mbit(hc.MemoryBits()), PaperAccesses: 60.05, PaperMemoryMb: 5.96,
	})

	rfcClassifier, err := rfc.Build(w.RuleSet)
	if err != nil {
		return nil, err
	}
	var rfcAccesses uint64
	for _, h := range w.Trace {
		_, _, a := rfcClassifier.Classify(h)
		rfcAccesses += uint64(a)
	}
	rows = append(rows, Table1Row{
		Algorithm: "RFC", AvgAccesses: float64(rfcAccesses) / float64(len(w.Trace)),
		MemorySpaceMb: Mbit(rfcClassifier.MemoryBits()), PaperAccesses: 48, PaperMemoryMb: 31.48,
	})

	dcflClassifier, err := dcfl.Build(w.RuleSet)
	if err != nil {
		return nil, err
	}
	var dcflAccesses uint64
	for _, h := range w.Trace {
		_, _, a := dcflClassifier.Classify(h)
		dcflAccesses += uint64(a)
	}
	rows = append(rows, Table1Row{
		Algorithm: "DCFL", AvgAccesses: float64(dcflAccesses) / float64(len(w.Trace)),
		MemorySpaceMb: Mbit(dcflClassifier.MemoryBits()), PaperAccesses: 23.1, PaperMemoryMb: 22.54,
	})

	for _, opt := range []struct {
		cfg           OptionConfig
		paperAccesses float64
		paperMemoryMb float64
	}{
		{Option1(), 49.3, 5.57},
		{Option2(), 31.33, 6.36},
	} {
		oc, err := buildOption(opt.cfg, w.RuleSet)
		if err != nil {
			return nil, err
		}
		var accesses uint64
		for _, h := range w.Trace {
			_, _, a := oc.classify(h)
			accesses += uint64(a)
		}
		rows = append(rows, Table1Row{
			Algorithm: opt.cfg.Name, AvgAccesses: float64(accesses) / float64(len(w.Trace)),
			MemorySpaceMb: Mbit(oc.memoryBits()), PaperAccesses: opt.paperAccesses, PaperMemoryMb: opt.paperMemoryMb,
		})
	}
	return rows, nil
}

// RenderTable1 renders Table I rows.
func RenderTable1(rows []Table1Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Algorithm,
			fmt.Sprintf("%.2f", r.AvgAccesses), fmt.Sprintf("%.2f", r.MemorySpaceMb),
			fmt.Sprintf("%.2f", r.PaperAccesses), fmt.Sprintf("%.2f", r.PaperMemoryMb),
		})
	}
	return renderTable("Table I — lookup performance of algorithm approaches", 0,
		[]string{"Algorithm", "Avg accesses", "Memory (Mb)", "Paper accesses", "Paper memory (Mb)"}, out)
}

// ---------------------------------------------------------------------------
// Table II — unique rule fields per rule set
// ---------------------------------------------------------------------------

// Table2Row is one column of Table II (one acl1 filter-set size).
type Table2Row struct {
	Name        string
	Rules       int
	UniqueCount map[fivetuple.Field]int
	PaperCount  map[fivetuple.Field]int
}

// Table2 generates the three acl1 filter sets and counts the unique field
// values per dimension.
func Table2() []Table2Row {
	rows := make([]Table2Row, 0, 3)
	for _, size := range []classbench.Size{classbench.Size1K, classbench.Size5K, classbench.Size10K} {
		rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, size))
		counts := make(map[fivetuple.Field]int, fivetuple.NumFields)
		for _, f := range fivetuple.Fields() {
			counts[f] = rs.UniqueFieldCount(f)
		}
		paper, _ := classbench.UniqueFieldTargets(classbench.ACL, size)
		rows = append(rows, Table2Row{
			Name: fmt.Sprintf("acl1 %s (%d rules)", size, rs.Len()), Rules: rs.Len(),
			UniqueCount: counts, PaperCount: paper,
		})
	}
	return rows
}

// RenderTable2 renders Table II rows.
func RenderTable2(rows []Table2Row) string {
	out := make([][]string, 0, fivetuple.NumFields)
	for _, f := range fivetuple.Fields() {
		cells := []string{f.String()}
		for _, r := range rows {
			cells = append(cells, fmt.Sprintf("%d (paper %d)", r.UniqueCount[f], r.PaperCount[f]))
		}
		out = append(out, cells)
	}
	header := []string{"Packet header field"}
	for _, r := range rows {
		header = append(header, r.Name)
	}
	return renderTable("Table II — number of unique rule fields per rule set", 0, header, out)
}

// ---------------------------------------------------------------------------
// Table III — analysis of rule filters
// ---------------------------------------------------------------------------

// Table3Row is one row of Table III.
type Table3Row struct {
	Class    classbench.Class
	Rules1K  int
	Rules5K  int
	Rules10K int
	Paper1K  int
	Paper5K  int
	Paper10K int
}

// Table3 generates every filter-set family and size and reports the rule
// counts.
func Table3() []Table3Row {
	rows := make([]Table3Row, 0, 3)
	for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
		row := Table3Row{
			Class:    class,
			Paper1K:  classbench.RuleCount(class, classbench.Size1K),
			Paper5K:  classbench.RuleCount(class, classbench.Size5K),
			Paper10K: classbench.RuleCount(class, classbench.Size10K),
		}
		row.Rules1K = classbench.Generate(classbench.StandardConfig(class, classbench.Size1K)).Len()
		row.Rules5K = classbench.Generate(classbench.StandardConfig(class, classbench.Size5K)).Len()
		row.Rules10K = classbench.Generate(classbench.StandardConfig(class, classbench.Size10K)).Len()
		rows = append(rows, row)
	}
	return rows
}

// RenderTable3 renders Table III rows.
func RenderTable3(rows []Table3Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			strings.ToUpper(r.Class.String()),
			fmt.Sprintf("%d (paper %d)", r.Rules1K, r.Paper1K),
			fmt.Sprintf("%d (paper %d)", r.Rules5K, r.Paper5K),
			fmt.Sprintf("%d (paper %d)", r.Rules10K, r.Paper10K),
		})
	}
	return renderTable("Table III — analysis of rule filters", 0,
		[]string{"Filter type", "1K rules", "5K rules", "10K rules"}, out)
}

// ---------------------------------------------------------------------------
// Table IV — port field labelling example
// ---------------------------------------------------------------------------

// Table4Result captures the Table IV example and the resulting label order
// for destination port 7812.
type Table4Result struct {
	Ranges     []fivetuple.PortRange
	Labels     []string
	LabelOrder []string
}

// Table4 reproduces the worked example of §IV.C.1: three port rules labelled
// A, B and C, and the lookup of port 7812 returning the order B, C, A.
func Table4() (Table4Result, error) {
	bank := portreg.Default()
	ranges := []fivetuple.PortRange{
		{Lo: 0, Hi: 65355},
		{Lo: 7812, Hi: 7812},
		{Lo: 7810, Hi: 7820},
	}
	names := []string{"A", "B", "C"}
	for i, rng := range ranges {
		if _, err := bank.Insert(rng, label.Label(i), i); err != nil {
			return Table4Result{}, err
		}
	}
	list, _ := bank.Lookup(7812)
	order := make([]string, 0, list.Len())
	for _, lbl := range list.Labels() {
		order = append(order, names[lbl])
	}
	return Table4Result{Ranges: ranges, Labels: names, LabelOrder: order}, nil
}

// RenderTable4 renders the Table IV example.
func RenderTable4(r Table4Result) string {
	out := make([][]string, 0, len(r.Ranges))
	for i, rng := range r.Ranges {
		method := "Range matching"
		if rng.IsExact() {
			method = "Exact matching"
		}
		out = append(out, []string{
			fmt.Sprintf("[%d - %d]", rng.Hi, rng.Lo), r.Labels[i], method,
		})
	}
	s := renderTable("Table IV — example of port field and labelling", 0,
		[]string{"Port field rule (high-low)", "Label", "Match method"}, out)
	return s + fmt.Sprintf("Lookup of destination port 7812 returns labels in order: %s (paper: B, C, A)\n",
		strings.Join(r.LabelOrder, ", "))
}

// ---------------------------------------------------------------------------
// Table V — synthesis result
// ---------------------------------------------------------------------------

// Table5Result pairs the estimated synthesis report with the paper's values.
type Table5Result struct {
	Report SynthReport

	PaperLogic      int
	PaperMemoryBits int
	PaperRegisters  int
	PaperFmaxMHz    float64
	PaperPins       int
}

// Table5 estimates the FPGA resources of the default architecture geometry.
func Table5() (Table5Result, error) {
	c, err := core.New(core.DefaultConfig())
	if err != nil {
		return Table5Result{}, err
	}
	return Table5Result{
		Report:          Synthesise(c.Report()),
		PaperLogic:      79835,
		PaperMemoryBits: 2097184,
		PaperRegisters:  129273,
		PaperFmaxMHz:    133.51,
		PaperPins:       500,
	}, nil
}

// RenderTable5 renders Table V.
func RenderTable5(r Table5Result) string {
	rows := [][]string{
		{"Logical utilization (ALMs)", fmt.Sprintf("%d / %d", r.Report.LogicALMs, r.Report.Device.ALMs), fmt.Sprintf("%d / 225,400", r.PaperLogic)},
		{"Total block memory bits", fmt.Sprintf("%d / %d", r.Report.BlockMemoryBits, r.Report.Device.BlockMemoryBits), fmt.Sprintf("%d / 54,476,800", r.PaperMemoryBits)},
		{"Total registers", fmt.Sprintf("%d", r.Report.Registers), fmt.Sprintf("%d", r.PaperRegisters)},
		{"Maximum frequency (MHz)", fmt.Sprintf("%.2f", r.Report.FmaxMHz), fmt.Sprintf("%.2f", r.PaperFmaxMHz)},
		{"Total number of pins", fmt.Sprintf("%d / %d", r.Report.Pins, r.Report.Device.Pins), fmt.Sprintf("%d / 908", r.PaperPins)},
	}
	return renderTable("Table V — synthesis result on Altera Stratix V (5SGXMB6R3F43C4)", 0,
		[]string{"Resource", "Measured (model)", "Paper"}, rows)
}

// ---------------------------------------------------------------------------
// Table VI — performance evaluation for the IP algorithm
// ---------------------------------------------------------------------------

// ipAlgorithms are the two values of the paper's IPalg_s signal (§IV.C.2):
// the IP engines Tables VI and VII and Fig. 3 compare.
var ipAlgorithms = []string{"mbt", "bst"}

// Table6Row is one row of Table VI.
type Table6Row struct {
	Algorithm             string // the IP engine name, "mbt" or "bst"
	AccessesPerPacket     int    // the provisioned per-packet figure of the paper
	MeasuredAvgIPAccesses float64
	MemorySpaceKbit       float64
	StoredRuleCapacity    int

	PaperAccesses int
	PaperKbit     float64
	PaperRules    int
}

// Table6 installs the workload under both IP algorithm selections and
// reports the per-packet accesses, the used IP-algorithm memory and the rule
// capacity.
func Table6(w Workload) ([]Table6Row, error) {
	rows := make([]Table6Row, 0, 2)
	paper := map[string]Table6Row{
		"mbt": {PaperAccesses: 1, PaperKbit: 543, PaperRules: 8000},
		"bst": {PaperAccesses: 16, PaperKbit: 49, PaperRules: 12000},
	}
	for _, alg := range ipAlgorithms {
		cfg := core.DefaultConfig()
		cfg.IPEngine = alg
		c, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := c.InstallRuleSet(w.RuleSet); err != nil {
			return nil, err
		}
		var ipAccesses uint64
		for _, h := range w.Trace {
			res := c.Lookup(h)
			// Per-field accesses include the port and protocol engines (3 of
			// them at 1 access each); subtract to isolate the IP engines.
			ipAccesses += uint64(res.FieldAccesses - 3)
		}
		rep := c.Report()
		row := Table6Row{
			Algorithm:             alg,
			AccessesPerPacket:     LookupPipeline(rep).BottleneckInterval(),
			MeasuredAvgIPAccesses: float64(ipAccesses) / float64(len(w.Trace)) / 4, // per segment engine
			MemorySpaceKbit:       Kbit(rep.Memory.IPEngineUsedBits),
			StoredRuleCapacity:    rep.RuleCapacity,
			PaperAccesses:         paper[alg].PaperAccesses,
			PaperKbit:             paper[alg].PaperKbit,
			PaperRules:            paper[alg].PaperRules,
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable6 renders Table VI.
func RenderTable6(rows []Table6Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			strings.ToUpper(r.Algorithm),
			fmt.Sprintf("%d (paper %d)", r.AccessesPerPacket, r.PaperAccesses),
			fmt.Sprintf("%.1f", r.MeasuredAvgIPAccesses),
			fmt.Sprintf("%.0f Kbit (paper %.0f)", r.MemorySpaceKbit, r.PaperKbit),
			fmt.Sprintf("%d (paper %d)", r.StoredRuleCapacity, r.PaperRules),
		})
	}
	return renderTable("Table VI — performance evaluation for the IP algorithm", 0,
		[]string{"IP lookup algorithm", "Accesses per packet", "Avg accesses per segment (measured)", "Memory space required", "Stored rules"}, out)
}

// ---------------------------------------------------------------------------
// Table VII — hardware comparison
// ---------------------------------------------------------------------------

// Table7Row is one row of Table VII.
type Table7Row struct {
	Algorithm      string
	MemorySpaceMb  float64
	StoredRules    int
	ThroughputGbps float64
	Source         string // "measured" or "literature"
}

// Table7 reports the architecture's two configurations (measured on this
// model) next to the published comparator rows the paper quotes.
func Table7() ([]Table7Row, error) {
	rows := make([]Table7Row, 0, 4)
	for _, alg := range ipAlgorithms {
		cfg := core.DefaultConfig()
		cfg.IPEngine = alg
		c, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		rep := c.Report()
		rows = append(rows, Table7Row{
			Algorithm:      "Our system with " + strings.ToUpper(alg),
			MemorySpaceMb:  Mbit(totalProvisionedBits(rep)),
			StoredRules:    rep.RuleCapacity,
			ThroughputGbps: LookupPipeline(rep).ThroughputGbps(40),
			Source:         "measured",
		})
	}
	rows = append(rows,
		Table7Row{Algorithm: "Optimizing HyperCuts FPGA [9]", MemorySpaceMb: 4.90, StoredRules: 10000, ThroughputGbps: 80.23, Source: "literature"},
		Table7Row{Algorithm: "DCFLE [4]", MemorySpaceMb: 1.77, StoredRules: 128, ThroughputGbps: 16, Source: "literature"},
	)
	return rows, nil
}

// RenderTable7 renders Table VII.
func RenderTable7(rows []Table7Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Algorithm, fmt.Sprintf("%.2f", r.MemorySpaceMb), fmt.Sprintf("%d", r.StoredRules),
			fmt.Sprintf("%.2f", r.ThroughputGbps), r.Source,
		})
	}
	return renderTable("Table VII — performance comparison (40-byte packets)", 0,
		[]string{"Algorithm", "Memory (Mb)", "Stored rules", "Throughput (Gbps)", "Source"}, out)
}

// ---------------------------------------------------------------------------
// Fig. 3 — lookup pipeline, Fig. 5 — memory sharing, §V.A — update cost
// ---------------------------------------------------------------------------

// Fig3Result captures the per-stage pipeline schedule under both algorithm
// selections.
type Fig3Result struct {
	MBTLatencyCycles int
	BSTLatencyCycles int
	MBTStages        []string
	BSTStages        []string
}

// Fig3 reproduces the lookup pipelining description of Fig. 3 and §V.B.
func Fig3() (Fig3Result, error) {
	var out Fig3Result
	for _, alg := range ipAlgorithms {
		cfg := core.DefaultConfig()
		cfg.IPEngine = alg
		c, err := core.New(cfg)
		if err != nil {
			return Fig3Result{}, err
		}
		p := LookupPipeline(c.Report())
		var stages []string
		for _, s := range p {
			stages = append(stages, fmt.Sprintf("%s: %d cycle(s), II=%d", s.Name, s.LatencyCycles, s.InitiationInterval))
		}
		if alg == "mbt" {
			out.MBTLatencyCycles = p.LatencyCycles()
			out.MBTStages = stages
		} else {
			out.BSTLatencyCycles = p.LatencyCycles()
			out.BSTStages = stages
		}
	}
	return out, nil
}

// RenderFig3 renders the pipeline description.
func RenderFig3(r Fig3Result) string {
	var sb strings.Builder
	sb.WriteString("Fig. 3 — lookup process pipelining\n")
	sb.WriteString(fmt.Sprintf("MBT configuration (total latency %d cycles; paper: 6-cycle MBT + 1 label fetch + 2 result):\n", r.MBTLatencyCycles))
	for _, s := range r.MBTStages {
		sb.WriteString("  " + s + "\n")
	}
	sb.WriteString(fmt.Sprintf("BST configuration (total latency %d cycles):\n", r.BSTLatencyCycles))
	for _, s := range r.BSTStages {
		sb.WriteString("  " + s + "\n")
	}
	return sb.String()
}

// Fig5Result captures the memory-sharing consequence of the IPalg_s signal.
type Fig5Result struct {
	SharedBlockBits     int
	FreedMBTBits        int
	RuleCapacityMBT     int
	RuleCapacityBST     int
	ExtraRulesFromShare int
}

// Fig5 quantifies the shared-block scheme of §IV.C.2.
func Fig5() Fig5Result {
	return Fig5Result{
		SharedBlockBits:     bstProvisionedBits,
		FreedMBTBits:        mbtProvisionedBits - bstProvisionedBits,
		RuleCapacityMBT:     fieldtier.RuleCapacityFor("mbt"),
		RuleCapacityBST:     fieldtier.RuleCapacityFor("bst"),
		ExtraRulesFromShare: fieldtier.ExtraRuleCapacityBST,
	}
}

// RenderFig5 renders the memory-sharing figures.
func RenderFig5(r Fig5Result) string {
	return fmt.Sprintf(
		"Fig. 5 — memory sharing (IPalg_s)\n"+
			"Shared MBT level-2 / BST block:  %d bits\n"+
			"MBT blocks freed when BST selected: %d bits\n"+
			"Rule capacity with MBT selected:  %d rules (paper 8K)\n"+
			"Rule capacity with BST selected:  %d rules (paper 12K, +%d from freed blocks)\n",
		r.SharedBlockBits, r.FreedMBTBits, r.RuleCapacityMBT, r.RuleCapacityBST, r.ExtraRulesFromShare)
}

// UpdateResult captures the §V.A update-cost experiment.
type UpdateResult struct {
	Rules                  int
	CyclesPerRule          int
	TotalEngineWrites      int
	AvgEngineWritesPerRule float64
	NewLabelRate           float64
}

// UpdateExperiment installs the workload rule by rule and reports the
// per-rule update cost.
func UpdateExperiment(w Workload) (UpdateResult, error) {
	c, err := core.New(core.DefaultConfig())
	if err != nil {
		return UpdateResult{}, err
	}
	total := UpdateResult{Rules: w.RuleSet.Len(), CyclesPerRule: updateCyclesPerRule}
	newLabels := 0
	// One ApplyUpdates batch keeps the per-rule reports while paying a
	// single snapshot clone; per-rule InsertRule would clone the whole data
	// path once per rule under the copy-on-write update model.
	rules := w.RuleSet.Rules()
	ops := make([]core.UpdateOp, len(rules))
	for i, r := range rules {
		ops[i] = core.UpdateOp{Rule: r}
	}
	reports, errs, err := c.ApplyUpdates(ops)
	if err != nil {
		return UpdateResult{}, err
	}
	for i, rep := range reports {
		if errs[i] != nil {
			return UpdateResult{}, errs[i]
		}
		total.TotalEngineWrites += rep.EngineWrites
		newLabels += rep.NewLabels
	}
	total.AvgEngineWritesPerRule = float64(total.TotalEngineWrites) / float64(total.Rules)
	total.NewLabelRate = float64(newLabels) / float64(total.Rules*label.NumDimensions)
	return total, nil
}

// RenderUpdate renders the update-cost experiment.
func RenderUpdate(r UpdateResult) string {
	return fmt.Sprintf(
		"§V.A — memory accesses for update\n"+
			"Rules installed:                   %d\n"+
			"Hardware upload cost per rule:     %d clock cycles (paper: 2 upload + 1 hash)\n"+
			"Average engine writes per rule:    %.2f (controller side, label method)\n"+
			"Fraction of field values needing a new label: %.1f%%\n",
		r.Rules, r.CyclesPerRule, r.AvgEngineWritesPerRule, 100*r.NewLabelRate)
}

// HPMLAccuracyResult quantifies how often the paper's single-probe
// combination returns the same verdict as the classifier's exact walk.
type HPMLAccuracyResult struct {
	Packets        int
	Agreement      float64
	HPMLMatchRate  float64
	ExactMatchRate float64
	AvgProbesExact float64
}

// HPMLAccuracy compares the paper's single-probe combination (§III.B) with
// the exact walk the classifier serves. The single probe is computed here:
// the seven field engines of the default configuration are programmed as
// the controller programs them — one label per unique field value, in
// install order, at the best priority of the rules using it — and the head
// label of each dimension's list forms the one combination key, which
// resolves to the best-priority rule whose seven labels equal it.
func HPMLAccuracy(w Workload) (HPMLAccuracyResult, error) {
	exact, err := core.New(core.DefaultConfig())
	if err != nil {
		return HPMLAccuracyResult{}, err
	}
	if _, err := exact.InstallRuleSet(w.RuleSet); err != nil {
		return HPMLAccuracyResult{}, err
	}
	probe, err := newSingleProbe(w.RuleSet)
	if err != nil {
		return HPMLAccuracyResult{}, err
	}
	result := HPMLAccuracyResult{Packets: len(w.Trace)}
	agree, hpmlMatches := 0, 0
	for _, h := range w.Trace {
		priority, matched := probe.lookup(h)
		want := exact.Lookup(h)
		if matched {
			hpmlMatches++
		}
		if matched == want.Matched && (!matched || priority == want.Priority) {
			agree++
		}
	}
	result.Agreement = float64(agree) / float64(len(w.Trace))
	result.HPMLMatchRate = float64(hpmlMatches) / float64(len(w.Trace))
	exactStats := exact.Report().Stats
	result.ExactMatchRate = exactStats.MatchRate()
	result.AvgProbesExact = exactStats.AverageCombinations()
	return result, nil
}

// singleProbe is the field engine of the default configuration with the
// paper's combination: the best rule priority of every installed label
// combination, probed once with the seven list heads.
type singleProbe struct {
	e    *fieldtier.Engine
	best map[label.CombinationKey]int
}

// newSingleProbe installs the rule set in order, as the controller does.
func newSingleProbe(rs *fivetuple.RuleSet) (*singleProbe, error) {
	cfg := core.DefaultConfig()
	e, err := fieldtier.New(cfg.IPEngine, cfg.PortRegisters, cfg.MaxCrossProductProbes)
	if err != nil {
		return nil, err
	}
	if err := e.Install(rs.Rules()); err != nil {
		return nil, err
	}
	p := &singleProbe{e: e, best: make(map[label.CombinationKey]int, rs.Len())}
	e.Entries(func(_ int, key label.CombinationKey, v fivetuple.Verdict) {
		if best, ok := p.best[key]; !ok || v.Priority < best {
			p.best[key] = v.Priority
		}
	})
	return p, nil
}

// lookup probes the combination of the seven list heads once.
func (p *singleProbe) lookup(h fivetuple.Header) (priority int, matched bool) {
	keys := engine.HeaderKeys(h)
	var (
		list   label.List
		labels [label.NumDimensions + 1]label.Label
	)
	for _, d := range label.Dimensions() {
		p.e.Field(d).LookupInto(keys[d], &list)
		head, ok := list.HPML()
		if !ok {
			return 0, false
		}
		labels[d] = head.Label
	}
	priority, matched = p.best[label.PackKeyDims(&labels)]
	return priority, matched
}

// RenderHPMLAccuracy renders the combination-mode comparison.
func RenderHPMLAccuracy(r HPMLAccuracyResult) string {
	return fmt.Sprintf(
		"Combination-mode analysis (additional to the paper)\n"+
			"Packets:                             %d\n"+
			"HPML single-probe agreement with exact mode: %.1f%%\n"+
			"HPML match rate / exact match rate:  %.1f%% / %.1f%%\n"+
			"Average combinations probed (exact): %.2f\n",
		r.Packets, 100*r.Agreement, 100*r.HPMLMatchRate, 100*r.ExactMatchRate, r.AvgProbesExact)
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// LabelMethodAblation quantifies the storage saved by labelling unique field
// values instead of storing every rule's fields verbatim (§III.C claims the
// saving exceeds 50%).
type LabelMethodAblation struct {
	Rules              int
	RawFieldBits       int
	UniqueFieldBits    int
	LabelReferenceBits int
	// FieldSavingFraction is the saving on field storage alone (the paper's
	// ">50%" claim, which follows directly from the Table II unique counts).
	FieldSavingFraction float64
	// NetSavingFraction additionally charges the 68-bit label key every rule
	// must still store in the Rule Filter.
	NetSavingFraction float64
}

// LabelMethod computes the ablation for a rule set.
func LabelMethod(rs *fivetuple.RuleSet) LabelMethodAblation {
	// Without labels every rule stores its five field matches verbatim:
	// 2 prefixes (37 bits each), 2 ranges (32 bits each) and a protocol
	// match (16 bits) = 154 bits.
	const perRuleFieldBits = 2*37 + 2*32 + 16
	out := LabelMethodAblation{Rules: rs.Len(), RawFieldBits: rs.Len() * perRuleFieldBits}
	// With labels each unique field value is stored once...
	uniqueBits := 0
	uniqueBits += rs.UniqueFieldCount(fivetuple.FieldSrcIP) * 37
	uniqueBits += rs.UniqueFieldCount(fivetuple.FieldDstIP) * 37
	uniqueBits += rs.UniqueFieldCount(fivetuple.FieldSrcPort) * 32
	uniqueBits += rs.UniqueFieldCount(fivetuple.FieldDstPort) * 32
	uniqueBits += rs.UniqueFieldCount(fivetuple.FieldProtocol) * 16
	out.UniqueFieldBits = uniqueBits
	// ...and each rule references them through the 68-bit combination key.
	out.LabelReferenceBits = rs.Len() * label.KeyBits
	out.FieldSavingFraction = 1 - float64(out.UniqueFieldBits)/float64(out.RawFieldBits)
	out.NetSavingFraction = 1 - float64(out.UniqueFieldBits+out.LabelReferenceBits)/float64(out.RawFieldBits)
	return out
}

// RenderLabelMethod renders the label-method ablation.
func RenderLabelMethod(a LabelMethodAblation) string {
	return fmt.Sprintf(
		"Ablation — label method storage saving (§III.C)\n"+
			"Rules: %d\n"+
			"Field storage without labels:           %d bits\n"+
			"Unique field values only:               %d bits (saving %.1f%%, paper: more than 50%%)\n"+
			"Including 68-bit rule keys in the Rule Filter: %d bits (net saving %.1f%%)\n",
		a.Rules, a.RawFieldBits, a.UniqueFieldBits, 100*a.FieldSavingFraction,
		a.UniqueFieldBits+a.LabelReferenceBits, 100*a.NetSavingFraction)
}
