// Command classbench generates synthetic filter sets and packet-header
// traces in the ClassBench text formats, calibrated to the filter-set
// statistics the paper reports (Tables II and III).
//
// Usage:
//
//	classbench -class acl -size 10k -rules-out acl1-10k.rules -trace-out acl1-10k.trace -packets 100000
//
// Omitting the output flags writes the rules to stdout.
package main

import (
	"flag"
	"fmt"
	"os"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "classbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("classbench", flag.ContinueOnError)
	className := fs.String("class", "acl", "filter-set class (acl, fw, ipc)")
	sizeName := fs.String("size", "10k", "filter-set size (1k, 5k, 10k)")
	rules := fs.Int("rules", 0, "override the exact rule count (0 uses the paper's Table III count)")
	seed := fs.Int64("seed", 0, "override the generator seed (0 uses the standard seed)")
	rulesOut := fs.String("rules-out", "", "write the filter set to this file (default stdout)")
	traceOut := fs.String("trace-out", "", "write a header trace to this file")
	packets := fs.Int("packets", 10000, "trace length when -trace-out is set")
	matchFraction := fs.Float64("match-fraction", 0.9, "fraction of trace headers derived from rules")
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

	cfg := classbench.StandardConfig(class, size)
	if *rules > 0 {
		cfg.Rules = *rules
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	rs := classbench.Generate(cfg)

	if err := writeRules(rs, *rulesOut); err != nil {
		return err
	}
	if *traceOut != "" {
		trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
			Packets: *packets, Seed: cfg.Seed + 1, MatchFraction: *matchFraction,
		})
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		defer f.Close()
		if err := fivetuple.WriteTrace(f, trace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d headers to %s\n", len(trace), *traceOut)
	}
	return nil
}

func writeRules(rs *fivetuple.RuleSet, path string) error {
	if path == "" {
		return rs.WriteClassBench(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating rules file: %w", err)
	}
	defer f.Close()
	if err := rs.WriteClassBench(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d rules to %s\n", rs.Len(), path)
	return nil
}
