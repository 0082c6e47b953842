package fieldtier

import (
	"fmt"
	"slices"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// InsertRule installs one rule following the incremental procedure of
// Fig. 4: for every dimension the rule's field value is looked up in the
// label table; a hit only records one more use, a miss creates a new label
// and writes the value into the dimension's engine. Finally the rule's label
// combination is hashed into the Rule Filter.
//
// An insert that fails midway rolls itself back and is refused with
// engine.ErrRefused: the rule cannot be held (a full label table, port
// register bank or Rule Filter), and a rebuild would hold it no better.
func (e *Engine) InsertRule(r fivetuple.Rule) (report engine.UpdateReport, err error) {
	var labels [label.NumDimensions + 1]label.Label
	dims := label.Dimensions()
	for i, d := range dims {
		held, err := e.acquire(d, &r, &labels[d], &report)
		if err != nil {
			e.undo(dims[:i+held], &r, true)
			return engine.UpdateReport{}, fmt.Errorf("%w: %w", engine.ErrRefused, err)
		}
	}
	_, probes, writes, err := e.filter.insert(label.PackKeyDims(&labels), r.Verdict())
	report.RuleFilterProbes = probes
	report.EngineWrites += writes
	if err != nil {
		e.undo(dims, &r, true)
		return engine.UpdateReport{}, fmt.Errorf("%w: %w", engine.ErrRefused, err)
	}
	return report, nil
}

// DeleteRule removes one rule, identified by its field matches and verdict.
// Deletion mirrors insertion: every dimension's use is released and only a
// value whose last use goes is removed from its engine (§IV.A: "only when
// the counter is zero, the label is deleted from the hardware
// architecture"); a value whose best use goes is re-seated at the next.
// Like InsertRule it rolls its own partial work back on failure, which
// declines the delta: the engine disagrees with the rules it was given, and
// a rebuild from them repairs it.
func (e *Engine) DeleteRule(r fivetuple.Rule) (report engine.UpdateReport, err error) {
	var labels [label.NumDimensions + 1]label.Label
	labelled, slot, dims := true, -1, label.Dimensions()
	for _, d := range dims {
		lbl, ok := e.labels.Table(d).Lookup(engine.RuleValue(d, r))
		labels[d], labelled = lbl, labelled && ok
	}
	if labelled {
		slot, report.RuleFilterProbes = e.filter.find(label.PackKeyDims(&labels), r.Verdict())
	}
	if slot < 0 {
		return report, fmt.Errorf("fieldtier: rule %s priority %d is not installed", r, r.Priority)
	}
	for i, d := range dims {
		released, err := e.release(d, &r, &report)
		if err != nil {
			e.undo(dims[:i+released], &r, false)
			return engine.UpdateReport{}, err
		}
	}
	e.filter.remove(slot)
	return report, nil
}

// UpdateCost reports no debt: the label method leaves the engine answering
// exactly as an Install over the same rules would, so it never needs a
// rebuild.
func (e *Engine) UpdateCost() engine.UpdateCost { return engine.UpdateCost{} }

// acquire records one use of r's value in dimension d, at r's priority, and
// writes the value into d's engine when the use creates its label or
// improves its best priority. held counts the use recorded (0 or 1), also
// when the engine write then failed.
func (e *Engine) acquire(d label.Dimension, r *fivetuple.Rule, lbl *label.Label, report *engine.UpdateReport) (held int, err error) {
	v, tbl := engine.RuleValue(d, *r), e.labels.Table(d)
	previousBest, _ := tbl.Best(v)
	l, created, err := tbl.Acquire(v, r.Priority)
	if err != nil {
		return 0, err
	}
	*lbl = l
	if created {
		report.NewLabels++
	}
	// A new label is written into the engine; an existing one that gained a
	// better priority is re-written so the engine lists are reordered and
	// the HPML invariant holds.
	if created || r.Priority < previousBest {
		writes, err := e.engines[d].Insert(v, l, r.Priority)
		report.EngineWrites += writes
		return 1, err
	}
	return 1, nil
}

// release drops one use of r's value in dimension d: the value leaves d's
// engine with its last use, or is re-seated at the surviving uses' best
// when r's use was its best. released counts the use dropped (0 or 1), also
// when the engine write then failed.
func (e *Engine) release(d label.Dimension, r *fivetuple.Rule, report *engine.UpdateReport) (released int, err error) {
	v, tbl := engine.RuleValue(d, *r), e.labels.Table(d)
	lbl, removed, err := tbl.Release(v, r.Priority)
	if err != nil {
		return 0, err
	}
	if removed {
		report.ReleasedLabels++
		writes, err := e.engines[d].Remove(v, lbl)
		report.EngineWrites += writes
		return 1, err
	}
	if best, _ := tbl.Best(v); best > r.Priority {
		// Engines whose lists are ordered positionally (ports, protocol)
		// treat this as a no-op.
		_, err = e.engines[d].Reprioritise(v, lbl, best)
	}
	return 1, err
}

// undo rolls back the uses an insert (acquired) or a delete (released) of r
// recorded in dims, last first. The label free lists are LIFO, so a value
// whose label a release freed gets the same label back.
func (e *Engine) undo(dims []label.Dimension, r *fivetuple.Rule, acquired bool) {
	var discard engine.UpdateReport
	var lbl label.Label
	for _, d := range slices.Backward(dims) {
		if acquired {
			_, _ = e.release(d, r, &discard)
		} else {
			_, _ = e.acquire(d, r, &lbl, &discard)
		}
	}
}
