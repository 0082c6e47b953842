package bench

import (
	"strings"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
)

// smallWorkload builds a fast workload for unit testing the harness; the
// full-size workloads are exercised by the benchmarks and cmd/experiments.
func smallWorkload() Workload {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 200, Seed: 12})
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 200, Seed: 13, MatchFraction: 0.9})
	return Workload{RuleSet: rs, Trace: trace}
}

func TestNewWorkload(t *testing.T) {
	w := NewWorkload(classbench.ACL, classbench.Size1K, 64)
	if w.RuleSet.Len() != classbench.RuleCount(classbench.ACL, classbench.Size1K) {
		t.Errorf("workload rule count = %d", w.RuleSet.Len())
	}
	if len(w.Trace) != 64 {
		t.Errorf("workload trace length = %d, want 64", len(w.Trace))
	}
}

func TestUnitConversions(t *testing.T) {
	if Mbit(1<<20) != 1 {
		t.Errorf("Mbit(2^20) = %v, want 1", Mbit(1<<20))
	}
	if Kbit(1024) != 1 {
		t.Errorf("Kbit(1024) = %v, want 1", Kbit(1024))
	}
}

func TestTable1SmallWorkload(t *testing.T) {
	rows, err := Table1(smallWorkload())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table1 returned %d rows, want 5", len(rows))
	}
	byName := make(map[string]Table1Row, len(rows))
	for _, r := range rows {
		byName[r.Algorithm] = r
		if r.AvgAccesses <= 0 || r.MemorySpaceMb <= 0 {
			t.Errorf("row %q has non-positive measurements: %+v", r.Algorithm, r)
		}
	}
	// Structural shape checks that hold even on this reduced workload: RFC
	// performs a fixed, small number of table indexings but pays for it with
	// the largest precomputed tables among the decomposition approaches
	// (HyperCuts and DCFL); the remaining Table I relationships depend on the
	// 10K workload and are reported (paper versus measured) in
	// EXPERIMENTS.md rather than asserted here.
	if byName["RFC"].AvgAccesses != 13 {
		t.Errorf("RFC accesses = %.1f, want the constant 13", byName["RFC"].AvgAccesses)
	}
	for _, name := range []string{"HyperCuts", "DCFL"} {
		if byName["RFC"].MemorySpaceMb <= byName[name].MemorySpaceMb {
			t.Errorf("RFC memory (%.2f Mb) should exceed %s memory (%.2f Mb)",
				byName["RFC"].MemorySpaceMb, name, byName[name].MemorySpaceMb)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "HyperCuts") {
		t.Errorf("RenderTable1 output malformed:\n%s", out)
	}
}

func TestTable2MatchesPaperExactly(t *testing.T) {
	rows := Table2()
	if len(rows) != 3 {
		t.Fatalf("Table2 returned %d rows", len(rows))
	}
	for _, r := range rows {
		for f, want := range r.PaperCount {
			if got := r.UniqueCount[f]; got != want {
				t.Errorf("%s %s unique count = %d, paper %d", r.Name, f, got, want)
			}
		}
	}
	if out := RenderTable2(rows); !strings.Contains(out, "Table II") {
		t.Error("RenderTable2 output malformed")
	}
}

func TestTable3MatchesPaperExactly(t *testing.T) {
	rows := Table3()
	for _, r := range rows {
		if r.Rules1K != r.Paper1K || r.Rules5K != r.Paper5K || r.Rules10K != r.Paper10K {
			t.Errorf("%v rule counts (%d,%d,%d) differ from paper (%d,%d,%d)",
				r.Class, r.Rules1K, r.Rules5K, r.Rules10K, r.Paper1K, r.Paper5K, r.Paper10K)
		}
	}
	if out := RenderTable3(rows); !strings.Contains(out, "Table III") {
		t.Error("RenderTable3 output malformed")
	}
}

func TestTable4ReproducesPaperOrdering(t *testing.T) {
	result, err := Table4()
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	want := []string{"B", "C", "A"}
	if len(result.LabelOrder) != len(want) {
		t.Fatalf("label order = %v, want %v", result.LabelOrder, want)
	}
	for i := range want {
		if result.LabelOrder[i] != want[i] {
			t.Fatalf("label order = %v, want %v", result.LabelOrder, want)
		}
	}
	if out := RenderTable4(result); !strings.Contains(out, "B, C, A") {
		t.Errorf("RenderTable4 output malformed:\n%s", out)
	}
}

func TestTable5WithinTolerance(t *testing.T) {
	result, err := Table5()
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	within := func(got, want, tol float64) bool { return got >= want*(1-tol) && got <= want*(1+tol) }
	if !within(float64(result.Report.BlockMemoryBits), float64(result.PaperMemoryBits), 0.05) {
		t.Errorf("block memory bits = %d, paper %d", result.Report.BlockMemoryBits, result.PaperMemoryBits)
	}
	if !within(result.Report.FmaxMHz, result.PaperFmaxMHz, 0.10) {
		t.Errorf("fmax = %.2f, paper %.2f", result.Report.FmaxMHz, result.PaperFmaxMHz)
	}
	if out := RenderTable5(result); !strings.Contains(out, "Table V") {
		t.Error("RenderTable5 output malformed")
	}
}

func TestTable6SmallWorkload(t *testing.T) {
	rows, err := Table6(smallWorkload())
	if err != nil {
		t.Fatalf("Table6: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("Table6 returned %d rows", len(rows))
	}
	var mbtRow, bstRow Table6Row
	for _, r := range rows {
		if r.Algorithm == "mbt" {
			mbtRow = r
		} else {
			bstRow = r
		}
	}
	// Table VI shape: the MBT sustains one packet per cycle while the BST
	// needs 16; the BST uses far less memory; the BST stores more rules.
	if mbtRow.AccessesPerPacket != 1 || bstRow.AccessesPerPacket != 16 {
		t.Errorf("accesses per packet = %d / %d, want 1 / 16", mbtRow.AccessesPerPacket, bstRow.AccessesPerPacket)
	}
	if bstRow.MemorySpaceKbit >= mbtRow.MemorySpaceKbit {
		t.Errorf("BST memory (%.1f Kbit) should be below MBT memory (%.1f Kbit)",
			bstRow.MemorySpaceKbit, mbtRow.MemorySpaceKbit)
	}
	if bstRow.StoredRuleCapacity <= mbtRow.StoredRuleCapacity {
		t.Errorf("BST capacity (%d) should exceed MBT capacity (%d)",
			bstRow.StoredRuleCapacity, mbtRow.StoredRuleCapacity)
	}
	if out := RenderTable6(rows); !strings.Contains(out, "Table VI") {
		t.Error("RenderTable6 output malformed")
	}
}

func TestTable7(t *testing.T) {
	rows, err := Table7()
	if err != nil {
		t.Fatalf("Table7: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table7 returned %d rows, want 4", len(rows))
	}
	if rows[0].ThroughputGbps < 42 || rows[0].ThroughputGbps > 43 {
		t.Errorf("MBT throughput = %.2f, want ~42.7", rows[0].ThroughputGbps)
	}
	if rows[1].ThroughputGbps < 2.5 || rows[1].ThroughputGbps > 2.8 {
		t.Errorf("BST throughput = %.2f, want ~2.67", rows[1].ThroughputGbps)
	}
	if rows[0].MemorySpaceMb < 1.9 || rows[0].MemorySpaceMb > 2.2 {
		t.Errorf("memory = %.2f Mb, want ~2.1", rows[0].MemorySpaceMb)
	}
	if rows[2].Source != "literature" || rows[3].Source != "literature" {
		t.Error("comparator rows must be marked as literature values")
	}
	if out := RenderTable7(rows); !strings.Contains(out, "Table VII") {
		t.Error("RenderTable7 output malformed")
	}
}

func TestFig3(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	if r.MBTLatencyCycles != 10 || r.BSTLatencyCycles != 20 {
		t.Errorf("latencies = %d / %d cycles, want 10 / 20", r.MBTLatencyCycles, r.BSTLatencyCycles)
	}
	if len(r.MBTStages) != 4 || len(r.BSTStages) != 4 {
		t.Errorf("stage counts = %d / %d, want 4 each", len(r.MBTStages), len(r.BSTStages))
	}
	if out := RenderFig3(r); !strings.Contains(out, "Fig. 3") {
		t.Error("RenderFig3 output malformed")
	}
}

func TestFig5(t *testing.T) {
	r := Fig5()
	if r.RuleCapacityMBT != 8192 {
		t.Errorf("MBT capacity = %d, want 8192", r.RuleCapacityMBT)
	}
	if r.RuleCapacityBST != r.RuleCapacityMBT+r.ExtraRulesFromShare {
		t.Errorf("BST capacity %d inconsistent with extra %d", r.RuleCapacityBST, r.ExtraRulesFromShare)
	}
	if r.SharedBlockBits <= 0 || r.FreedMBTBits <= 0 {
		t.Errorf("sharing bits = %d / %d", r.SharedBlockBits, r.FreedMBTBits)
	}
	if out := RenderFig5(r); !strings.Contains(out, "Fig. 5") {
		t.Error("RenderFig5 output malformed")
	}
}

func TestUpdateExperiment(t *testing.T) {
	r, err := UpdateExperiment(smallWorkload())
	if err != nil {
		t.Fatalf("UpdateExperiment: %v", err)
	}
	if r.CyclesPerRule != 3 {
		t.Errorf("CyclesPerRule = %d, want 3", r.CyclesPerRule)
	}
	if r.AvgEngineWritesPerRule <= 0 || r.NewLabelRate <= 0 || r.NewLabelRate > 1 {
		t.Errorf("update result = %+v", r)
	}
	if out := RenderUpdate(r); !strings.Contains(out, "update") {
		t.Error("RenderUpdate output malformed")
	}
}

func TestHPMLAccuracy(t *testing.T) {
	r, err := HPMLAccuracy(smallWorkload())
	if err != nil {
		t.Fatalf("HPMLAccuracy: %v", err)
	}
	if r.Packets != 200 {
		t.Errorf("Packets = %d", r.Packets)
	}
	if r.Agreement < 0 || r.Agreement > 1 || r.ExactMatchRate <= 0 {
		t.Errorf("accuracy result = %+v", r)
	}
	if r.HPMLMatchRate > r.ExactMatchRate {
		t.Errorf("the single-probe mode cannot match more often than the exact mode: %+v", r)
	}
	if out := RenderHPMLAccuracy(r); !strings.Contains(out, "Combination-mode") {
		t.Error("RenderHPMLAccuracy output malformed")
	}
}

func TestLabelMethodAblation(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	a := LabelMethod(rs)
	if a.Rules != rs.Len() {
		t.Errorf("Rules = %d", a.Rules)
	}
	// §III.C: avoiding rule field repetition saves more than 50% of the field
	// storage on the acl1 sets.
	if a.FieldSavingFraction < 0.5 {
		t.Errorf("label-method field saving = %.2f, want > 0.5", a.FieldSavingFraction)
	}
	if a.NetSavingFraction >= a.FieldSavingFraction {
		t.Error("net saving must be below the field-only saving")
	}
	if out := RenderLabelMethod(a); !strings.Contains(out, "label method") {
		t.Error("RenderLabelMethod output malformed")
	}
	_ = fivetuple.Fields() // keep the import referenced even if assertions change
}
