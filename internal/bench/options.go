// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§V and Table I–VII) from the packages in
// this repository and renders them in the same shape as the paper, so that
// EXPERIMENTS.md can record paper-versus-measured values side by side. It
// measures no wall-clock time: measured software performance is benchmark/'s.
package bench

import (
	"fmt"

	"sdnpc/internal/algo/lut"
	"sdnpc/internal/algo/mbt"
	"sdnpc/internal/algo/segtrie"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// OptionConfig describes one of the single-field algorithm combinations
// evaluated in Table I: Option 1 is a 5-level multi-bit trie for the IP
// fields, a 4-level segment trie for the port fields and a register LUT for
// the protocol; Option 2 swaps the level counts (4-level MBT, 5-level
// segment trie).
type OptionConfig struct {
	Name           string
	IPTrieLevels   int
	PortTrieLevels int
}

// Option1 returns the Table I "Option 1" configuration.
func Option1() OptionConfig {
	return OptionConfig{Name: "Option 1", IPTrieLevels: 5, PortTrieLevels: 4}
}

// Option2 returns the Table I "Option 2" configuration.
func Option2() OptionConfig {
	return OptionConfig{Name: "Option 2", IPTrieLevels: 4, PortTrieLevels: 5}
}

// optionClassifier composes full-width single-field engines (the Option 1/2
// rows of Table I): one 32-bit multi-bit trie per IP field, one segment trie
// per port field and a protocol LUT, combined through a label cross-product
// table as in the decomposition approach of the authors' prior work.
type optionClassifier struct {
	cfg OptionConfig

	srcTrie  *mbt.Engine
	dstTrie  *mbt.Engine
	srcPorts *segtrie.Engine
	dstPorts *segtrie.Engine
	proto    *lut.Table

	// labels per field value.
	srcLabels, dstLabels map[string]label.Label
	spLabels, dpLabels   map[string]label.Label
	protoLabels          map[string]label.Label
	// combos maps the packed label 5-tuple of every rule to the best rule
	// priority using it.
	combos map[[5]label.Label]int

	rules []fivetuple.Rule
}

// buildOption constructs the composite classifier for a rule set.
func buildOption(cfg OptionConfig, rs *fivetuple.RuleSet) (*optionClassifier, error) {
	ipCfg := mbt.UniformConfig(32, cfg.IPTrieLevels)
	srcTrie, err := mbt.New(ipCfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	dstTrie, err := mbt.New(ipCfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	srcPorts, err := segtrie.New(cfg.PortTrieLevels)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	dstPorts, err := segtrie.New(cfg.PortTrieLevels)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	oc := &optionClassifier{
		cfg:         cfg,
		srcTrie:     srcTrie,
		dstTrie:     dstTrie,
		srcPorts:    srcPorts,
		dstPorts:    dstPorts,
		proto:       lut.MustNew(8),
		srcLabels:   make(map[string]label.Label),
		dstLabels:   make(map[string]label.Label),
		spLabels:    make(map[string]label.Label),
		dpLabels:    make(map[string]label.Label),
		protoLabels: make(map[string]label.Label),
		combos:      make(map[[5]label.Label]int),
		rules:       rs.Rules(),
	}
	for _, r := range oc.rules {
		if err := oc.insert(r); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

func allocLabel(m map[string]label.Label, key string) (label.Label, bool) {
	if l, ok := m[key]; ok {
		return l, false
	}
	l := label.Label(len(m))
	m[key] = l
	return l, true
}

func (oc *optionClassifier) insert(r fivetuple.Rule) error {
	srcKey := r.SrcPrefix.Canonical().String()
	srcLbl, created := allocLabel(oc.srcLabels, srcKey)
	if created {
		p := r.SrcPrefix.Canonical()
		if _, err := oc.srcTrie.Insert(uint32(p.Addr), p.Len, srcLbl, r.Priority); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	dstKey := r.DstPrefix.Canonical().String()
	dstLbl, created := allocLabel(oc.dstLabels, dstKey)
	if created {
		p := r.DstPrefix.Canonical()
		if _, err := oc.dstTrie.Insert(uint32(p.Addr), p.Len, dstLbl, r.Priority); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	spLbl, created := allocLabel(oc.spLabels, r.SrcPort.String())
	if created {
		if _, err := oc.srcPorts.Insert(r.SrcPort, spLbl, r.Priority); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	dpLbl, created := allocLabel(oc.dpLabels, r.DstPort.String())
	if created {
		if _, err := oc.dstPorts.Insert(r.DstPort, dpLbl, r.Priority); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	protoKey := "*"
	if !r.Protocol.IsWildcard() {
		protoKey = fivetuple.ExactProtocol(r.Protocol.Value).String()
	}
	prLbl, created := allocLabel(oc.protoLabels, protoKey)
	if created {
		if r.Protocol.IsWildcard() {
			oc.proto.InsertWildcard(prLbl, r.Priority)
		} else {
			oc.proto.InsertExact(r.Protocol.Value, prLbl, r.Priority)
		}
	}
	combo := [5]label.Label{srcLbl, dstLbl, spLbl, dpLbl, prLbl}
	if existing, ok := oc.combos[combo]; !ok || r.Priority < existing {
		oc.combos[combo] = r.Priority
	}
	return nil
}

// classify returns the HPMR priority, whether a rule matched and the number
// of memory accesses (per-field engine accesses plus one combination-table
// probe per examined label combination).
func (oc *optionClassifier) classify(h fivetuple.Header) (priority int, matched bool, accesses int) {
	srcList, a1 := oc.srcTrie.Lookup(uint32(h.SrcIP))
	dstList, a2 := oc.dstTrie.Lookup(uint32(h.DstIP))
	spList, a3 := oc.srcPorts.Lookup(h.SrcPort)
	dpList, a4 := oc.dstPorts.Lookup(h.DstPort)
	prList, a5 := oc.proto.Lookup(h.Protocol)
	accesses = a1 + a2 + a3 + a4 + a5

	best := 0
	found := false
	for _, s := range srcList.Labels() {
		for _, d := range dstList.Labels() {
			for _, sp := range spList.Labels() {
				for _, dp := range dpList.Labels() {
					for _, pr := range prList.Labels() {
						accesses++
						if p, ok := oc.combos[[5]label.Label{s, d, sp, dp, pr}]; ok {
							if !found || p < best {
								best = p
								found = true
							}
						}
					}
				}
			}
		}
	}
	return best, found, accesses
}

// memoryBits returns the storage consumed by the composite classifier.
func (oc *optionClassifier) memoryBits() int {
	total := oc.srcTrie.MemoryBits() + oc.srcTrie.LabelListBits() +
		oc.dstTrie.MemoryBits() + oc.dstTrie.LabelListBits() +
		oc.srcPorts.MemoryBits() + oc.srcPorts.LabelListBits() +
		oc.dstPorts.MemoryBits() + oc.dstPorts.LabelListBits() +
		oc.proto.MemoryBits()
	// The combination table stores the five labels and the rule priority per
	// distinct combination.
	total += len(oc.combos) * (5*16 + 14)
	return total
}
