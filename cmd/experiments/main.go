// Command experiments regenerates the tables and figures of the paper's
// evaluation section from the packages in this repository. Throughput
// figures in the tables are the modelled hardware pipeline; measured
// software performance comes from benchmark/ (bash benchmark/run.sh).
//
// Usage:
//
//	experiments [-experiment NAME]
//	            [-class acl|fw|ipc] [-size 1k|5k|10k] [-packets N] [-ip-engine name]
//
// NAME is "all" or one entry of the experiments list below (-h prints it).
// The output is deterministic: `-size 1k` is checked byte for byte against
// testdata/all-1k.golden by TestExperimentsGolden.
//
// The measured values are printed next to the values the paper reports, in
// the same row/column structure, so the output can be pasted into
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sdnpc/internal/bench"
	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// params is what the flags resolve to; every experiment reads what it needs.
type params struct {
	class    classbench.Class
	size     classbench.Size
	packets  int
	ipEngine string

	cached *bench.Workload
}

// workload generates the shared filter set and trace once, on first use, so
// the experiments that need none (table2, fig5, ...) do not pay for it.
func (p *params) workload() bench.Workload {
	if p.cached == nil {
		w := bench.NewWorkload(p.class, p.size, p.packets)
		p.cached = &w
	}
	return *p.cached
}

// experiment is one -experiment value. The experiments list is the single
// source of the valid names: the flag help, the unknown-name error and the
// order "all" runs in are all derived from it.
type experiment struct {
	name string
	run  func(*params) (string, error)
}

// rendered adapts a Render function to an experiment's (rows, error) result.
func rendered[T any](render func(T) string) func(T, error) (string, error) {
	return func(v T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}

var experiments = []experiment{
	{name: "table1", run: func(p *params) (string, error) {
		return rendered(bench.RenderTable1)(bench.Table1(p.workload()))
	}},
	{name: "table2", run: func(*params) (string, error) { return bench.RenderTable2(bench.Table2()), nil }},
	{name: "table3", run: func(*params) (string, error) { return bench.RenderTable3(bench.Table3()), nil }},
	{name: "table4", run: func(*params) (string, error) { return rendered(bench.RenderTable4)(bench.Table4()) }},
	{name: "table5", run: func(*params) (string, error) { return rendered(bench.RenderTable5)(bench.Table5()) }},
	{name: "table6", run: func(p *params) (string, error) {
		return rendered(bench.RenderTable6)(bench.Table6(p.workload()))
	}},
	{name: "table7", run: func(*params) (string, error) { return rendered(bench.RenderTable7)(bench.Table7()) }},
	{name: "fig3", run: func(*params) (string, error) { return rendered(bench.RenderFig3)(bench.Fig3()) }},
	{name: "fig5", run: func(*params) (string, error) { return bench.RenderFig5(bench.Fig5()), nil }},
	{name: "update", run: func(p *params) (string, error) {
		return rendered(bench.RenderUpdate)(bench.UpdateExperiment(p.workload()))
	}},
	{name: "hpml", run: func(p *params) (string, error) {
		return rendered(bench.RenderHPMLAccuracy)(bench.HPMLAccuracy(p.workload()))
	}},
	{name: "labelmethod", run: func(p *params) (string, error) {
		return bench.RenderLabelMethod(bench.LabelMethod(p.workload().RuleSet)), nil
	}},
	{name: "engines", run: func(p *params) (string, error) {
		return rendered(bench.RenderEngineSweep)(bench.EngineSweep(p.workload(), p.ipEngine))
	}},
}

// experimentNames lists "all" and every experiment, in run order.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return names
}

func run(args []string, out io.Writer) error {
	valid := strings.Join(experimentNames(), ", ")
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	selected := fs.String("experiment", "all", "experiment to run: "+valid)
	className := fs.String("class", "acl", "filter-set class for workload-driven experiments (acl, fw, ipc)")
	sizeName := fs.String("size", "5k", "filter-set size for workload-driven experiments (1k, 5k, 10k)")
	packets := fs.Int("packets", 20000, "trace length for workload-driven experiments")
	ipEngine := fs.String("ip-engine", "", fmt.Sprintf("restrict the engines experiment to one registered engine of either tier %v", engine.SelectableNames()))
	if err := fs.Parse(args); err != nil {
		return err
	}
	class, err := classbench.ParseClass(*className)
	if err != nil {
		return err
	}
	size, err := classbench.ParseSize(*sizeName)
	if err != nil {
		return err
	}
	p := &params{class: class, size: size, packets: *packets, ipEngine: *ipEngine}

	name := strings.ToLower(*selected)
	ranAny := false
	for _, e := range experiments {
		if name != e.name && name != "all" {
			continue
		}
		ranAny = true
		text, err := e.run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(out, text)
	}
	if !ranAny {
		return fmt.Errorf("unknown experiment %q (valid: %s)", *selected, valid)
	}
	return nil
}
