package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// ErrRuleNotInstalled is returned when deleting a rule that is not present.
var ErrRuleNotInstalled = errors.New("core: rule not installed")

// ErrDimsUnsupported is returned when installing a rule that requires
// extension dimensions (IPv6, VLAN, TCP flags, masked protocol,
// non-terminating semantics) the serving engine does not declare, or when
// switching to an engine that does not cover the installed rules' dimensions.
var ErrDimsUnsupported = errors.New("core: extension dimensions unsupported by engine")

// UpdateReport describes the cost of one rule insertion or deletion.
type UpdateReport struct {
	// NewLabels is the number of dimensions in which the rule introduced a
	// previously unseen field value (Fig. 4: "new label creation"). A rule
	// whose field values are all already labelled costs no engine updates at
	// all — the benefit of the label counters.
	NewLabels int
	// ReleasedLabels is the number of labels whose counter reached zero on
	// deletion.
	ReleasedLabels int
	// EngineWrites is the number of algorithm-block memory writes performed
	// by the engines.
	EngineWrites int
	// RuleFilterProbes is the number of Rule Filter slots touched.
	RuleFilterProbes int
}

// updateTally is what one update transaction applied to its working copy. A
// deletion that failed midway counts: it changed the copy.
type updateTally struct {
	inserts, deletes int
}

// update is the one rule-update transaction every entry point runs: with the
// writer mutex held it clones the published snapshot, lets mutate apply its
// ops to the private clone, brings the packet tier in step, publishes the
// result with a single atomic swap and records the publish. Nothing is
// published when mutate fails, when it applied no op, or when the packet
// structure cannot be built over the resulting rule set — the clone is
// discarded whole, so a partially applied update can never become visible,
// and the field tier's label bank, which the clone shares with the published
// snapshot, is put back to what the published rules imply.
func (c *Classifier) update(mutate func(next *snapshot, applied *updateTally) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	current := c.view()
	next := current.clone()
	var applied updateTally
	if err := mutate(next, &applied); err != nil {
		if next.field != nil && applied != (updateTally{}) {
			next.field.restoreLabels(&current.table)
		}
		return err
	}
	if applied.inserts+applied.deletes == 0 {
		return nil
	}
	sync, err := next.syncPacket(&c.cfg)
	if err != nil {
		return err
	}
	c.publish(next)
	c.stats.recordUpdates(applied.inserts, applied.deletes)
	c.stats.recordPublish(sync, time.Since(start))
	return nil
}

// InsertRule installs one rule following the incremental procedure of
// Fig. 4: for every dimension the controller looks the field value up in the
// label table; a hit only increments the reference counter, a miss creates a
// new label and writes the value into the corresponding lookup engine.
// Finally the rule's label combination is hashed into the Rule Filter. (With
// a whole-packet engine selected there are no labels: the rule is spliced
// into, or rebuilt into, the precomputed structure.)
//
// The update is applied to a private clone of the published snapshot and
// swapped in atomically, so concurrent lookups see the rule either fully
// installed or not at all. A failed insertion publishes nothing.
func (c *Classifier) InsertRule(r fivetuple.Rule) (report UpdateReport, err error) {
	err = c.update(func(next *snapshot, applied *updateTally) (err error) {
		// A failed insertion has rolled itself back: nothing was applied.
		if report, err = next.insertRule(&c.cfg, r); err == nil {
			*applied = updateTally{inserts: 1}
		}
		return err
	})
	if err != nil {
		return UpdateReport{}, err
	}
	return report, nil
}

// DeleteRule removes one installed rule, identified by its field matches and
// priority (the first installed, when several rules share both). Deletion
// mirrors insertion: every dimension's label counter is decremented and only
// a counter that reaches zero removes the value from its engine (§IV.A: "only
// when the counter is zero, the label is deleted from the hardware
// architecture"). Like InsertRule, the deletion is built on a private clone
// and published atomically.
func (c *Classifier) DeleteRule(r fivetuple.Rule) (report UpdateReport, err error) {
	err = c.update(func(next *snapshot, applied *updateTally) (err error) {
		var mutated bool
		if report, mutated, err = next.deleteRule(r); mutated {
			*applied = updateTally{deletes: 1}
		}
		return err
	})
	if err != nil {
		return UpdateReport{}, err
	}
	return report, nil
}

// InstallRuleSet inserts every rule of the set in priority order as one
// atomic batch: the whole set is applied to a single clone of the data path
// and published with one swap, so concurrent lookups observe either none or
// all of the set. It returns the accumulated update report.
func (c *Classifier) InstallRuleSet(rs *fivetuple.RuleSet) (total UpdateReport, err error) {
	err = c.update(func(next *snapshot, applied *updateTally) error {
		// One exact-size growth, so the published snapshot does not hold
		// whatever spare capacity repeated appends happened to round up to.
		next.table.ownIDs(rs.Len())
		for _, r := range rs.Rules() {
			rep, err := next.insertRule(&c.cfg, r)
			if err != nil {
				return fmt.Errorf("core: installing %q rule %d: %w", rs.Name, r.Priority, err)
			}
			total.NewLabels += rep.NewLabels
			total.EngineWrites += rep.EngineWrites
			total.RuleFilterProbes += rep.RuleFilterProbes
			applied.inserts++
		}
		return nil
	})
	return total, err
}

// insertRule applies one insertion to this (unpublished) snapshot.
func (s *snapshot) insertRule(cfg *Config, r fivetuple.Rule) (UpdateReport, error) {
	name := s.activeEngineName()
	if s.table.len() >= cfg.RuleCapacityFor(name) {
		return UpdateReport{}, fmt.Errorf("%w: capacity %d under the %s configuration",
			ErrRuleFilterFull, cfg.RuleCapacityFor(name), name)
	}
	// Extended rules (IPv6/VLAN/TCP-flag/masked-proto/non-terminating) need
	// an engine that declares every dimension they require — otherwise the
	// install is refused rather than silently misclassified. The field tier
	// serves only the IPv4 five-tuple.
	if dims, have := r.Dims(), s.servedDims(); !have.Covers(dims) {
		return UpdateReport{}, fmt.Errorf("%w: rule %s requires dimensions %s but engine %q serves %s",
			ErrDimsUnsupported, r, dims, name, have)
	}
	var report UpdateReport
	// After every rule of the same or a better priority: ties stay in
	// installation order.
	idx := s.table.bound(r.Priority, true)
	var key label.CombinationKey
	if s.packet != nil {
		s.packet.pending = append(s.packet.pending, packetDelta{rule: r, idx: idx})
	} else {
		var err error
		if key, err = s.field.insertRule(r, &report); err != nil {
			return UpdateReport{}, fmt.Errorf("core: inserting rule %s: %w", r, err)
		}
	}
	s.table.insert(idx, r, key)
	return report, nil
}

// insertRule labels the rule's seven field values, writes the new ones into
// their engines and hashes the label combination into the Rule Filter,
// adding the costs to report and returning the combination key.
// A failure midway is rolled back: the tier is private until published, but
// InstallRuleSet and ApplyUpdates keep applying ops to the same clone after
// an individual failure is surfaced, so it must stay internally consistent.
func (f *fieldTier) insertRule(r fivetuple.Rule, report *UpdateReport) (label.CombinationKey, error) {
	var ruleLabels [label.NumDimensions + 1]label.Label
	// rollback undoes the first n dimensions, last first.
	rollback := func(n int) {
		for _, d := range slices.Backward(label.Dimensions()[:n]) {
			v := fieldValue(d, r)
			tbl := f.labels.Table(d)
			if _, removed, err := tbl.Release(v, r.Priority); err == nil && removed {
				// The value was created by this insertion; undo the engine
				// write.
				_, _ = f.engines[d].Remove(v, ruleLabels[d])
			} else if best, _ := tbl.Best(v); err == nil && best > r.Priority {
				// The insertion had improved the value's best priority;
				// re-seat it at the surviving rules' best.
				_, _ = f.engines[d].Reprioritise(v, ruleLabels[d], best)
			}
		}
	}

	for i, d := range label.Dimensions() {
		v := fieldValue(d, r)
		tbl := f.labels.Table(d)
		previousBest, _ := tbl.Best(v)
		lbl, created, err := tbl.Acquire(v, r.Priority)
		if err != nil {
			rollback(i)
			return label.CombinationKey{}, err
		}
		ruleLabels[d] = lbl
		if created {
			report.NewLabels++
		}
		// A new label is written into the engine; an existing one that gained
		// a better priority is re-written so the engine lists are reordered
		// and the HPML invariant holds.
		if created || r.Priority < previousBest {
			writes, err := f.engines[d].Insert(v, lbl, r.Priority)
			report.EngineWrites += writes
			if err != nil {
				rollback(i + 1)
				return label.CombinationKey{}, err
			}
		}
	}

	key := label.PackKeyDims(&ruleLabels)
	_, probes, writes, err := f.filter.insert(key, r.Priority, r.Action, r.ActionArg)
	report.RuleFilterProbes = probes
	report.EngineWrites += writes
	if err != nil {
		rollback(label.NumDimensions)
		return label.CombinationKey{}, err
	}
	return key, nil
}

// deleteRule applies one deletion to this (unpublished) snapshot. mutated
// reports whether the snapshot was changed when an error is returned: a
// clean failure (rule not installed, filter entry missing) leaves the
// snapshot untouched and batch processing may continue, while a mid-loop
// engine or label-table failure leaves it partially mutated — the caller
// must then discard the snapshot rather than publish it.
func (s *snapshot) deleteRule(r fivetuple.Rule) (report UpdateReport, mutated bool, err error) {
	idx := s.findInstalled(r)
	if idx < 0 {
		return UpdateReport{}, false, fmt.Errorf("%w: %s priority %d", ErrRuleNotInstalled, r, r.Priority)
	}
	installed := *s.table.at(idx)
	if s.packet != nil {
		s.packet.pending = append(s.packet.pending, packetDelta{delete: true, rule: installed, idx: idx})
	} else if dirty, err := s.field.deleteRule(installed, s.table.key(idx), &report); err != nil {
		return report, dirty, fmt.Errorf("core: deleting rule %s: %w", r, err)
	}
	s.table.delete(idx)
	return report, true, nil
}

// deleteRule removes the rule's Rule Filter entry and releases its seven
// labels, removing or re-prioritising the field values whose last or best
// rule it was. mutated is as for snapshot.deleteRule.
func (f *fieldTier) deleteRule(r fivetuple.Rule, key label.CombinationKey, report *UpdateReport) (mutated bool, err error) {
	found, probes := f.filter.remove(key, r.Priority)
	report.RuleFilterProbes = probes
	if !found {
		return false, errors.New("rule filter entry missing")
	}
	for _, d := range label.Dimensions() {
		v := fieldValue(d, r)
		lbl, removed, err := f.labels.Table(d).Release(v, r.Priority)
		if err != nil {
			return true, err
		}
		if removed {
			report.ReleasedLabels++
			writes, err := f.engines[d].Remove(v, lbl)
			report.EngineWrites += writes
			if err != nil {
				return true, err
			}
		} else if newBest, _ := f.labels.Table(d).Best(v); newBest > r.Priority {
			// The deleted rule alone defined the value's best priority:
			// re-install it at the new best. Engines whose lists are ordered
			// positionally (ports, protocol) treat this as a no-op.
			if _, err := f.engines[d].Reprioritise(v, lbl, newBest); err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

// UpdateOp is one rule mutation inside an update batch.
type UpdateOp struct {
	// Delete selects deletion; insertion otherwise.
	Delete bool
	Rule   fivetuple.Rule
}

// ApplyUpdates applies a mixed, ordered sequence of insertions and
// deletions as one batch: the published snapshot is cloned once, every op
// is applied to the clone in order, and the result is published with a
// single swap. This is the amortised update path — a control plane
// streaming thousands of flow-mods pays one data-path copy per batch
// instead of one per rule.
//
// Ops are independent, as if issued separately: an op that fails cleanly
// (duplicate delete, capacity exceeded, rolled-back insert) is skipped with
// its error recorded at its index in errs, and the remaining ops still
// apply. The batch is published when at least one op succeeded. Two
// failures are batch-level instead, abandoning the whole batch unpublished
// with the error returned as err: a failure that leaves the working copy
// partially mutated (a deletion failing midway through its engines), and —
// with a packet engine active — a failed rebuild of the precomputed
// structure over the batch's final rule set (e.g. an RFC cross-product
// explosion), which is a property of the aggregate rule set rather than of
// any single op.
func (c *Classifier) ApplyUpdates(ops []UpdateOp) (reports []UpdateReport, errs []error, err error) {
	if len(ops) == 0 {
		return nil, nil, nil
	}
	reports = make([]UpdateReport, len(ops))
	errs = make([]error, len(ops))
	err = c.update(func(next *snapshot, applied *updateTally) error {
		for i, op := range ops {
			if op.Delete {
				var mutated bool
				reports[i], mutated, errs[i] = next.deleteRule(op.Rule)
				if errs[i] != nil {
					if mutated {
						applied.deletes++
						return fmt.Errorf("core: abandoning update batch at op %d: %w", i, errs[i])
					}
					continue
				}
				applied.deletes++
			} else {
				// insertRule rolls itself back on failure, so a failed insert
				// never poisons the working copy.
				reports[i], errs[i] = next.insertRule(&c.cfg, op.Rule)
				if errs[i] != nil {
					continue
				}
				applied.inserts++
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return reports, errs, nil
}
