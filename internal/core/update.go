package core

import (
	"errors"
	"fmt"
	"time"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/hw/hashunit"
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
	// ClockCycles is the data-plane upload cost of the update following the
	// paper's model (§V.A): two cycles for the memory upload of the rule
	// (source and destination halves) plus one cycle for the hardware hash
	// producing the rule address.
	ClockCycles int
}

// hardwareUpdateCycles is the per-rule upload cost of §V.A.
func hardwareUpdateCycles() int {
	return CyclesUpdateMemoryUpload + CyclesUpdateHash
}

// InsertRule installs one rule following the incremental procedure of
// Fig. 4: for every dimension the controller looks the field value up in the
// label table; a hit only increments the reference counter, a miss creates a
// new label and writes the value into the corresponding lookup engine.
// Finally the rule's label combination is hashed into the Rule Filter.
//
// The update is applied to a private clone of the published snapshot and
// swapped in atomically, so concurrent lookups see the rule either fully
// installed or not at all. A failed insertion publishes nothing.
func (c *Classifier) InsertRule(r fivetuple.Rule) (UpdateReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	next, err := c.view().clone(&c.cfg)
	if err != nil {
		return UpdateReport{}, err
	}
	report, err := next.insertRule(&c.cfg, r)
	if err != nil {
		return UpdateReport{}, err
	}
	sync, err := next.syncPacket(&c.cfg)
	if err != nil {
		return UpdateReport{}, err
	}
	c.publish(next)
	c.stats.recordInsert(report)
	c.stats.recordPublish(sync, time.Since(start))
	return report, nil
}

// DeleteRule removes one installed rule, identified by its five field
// matches and priority. Deletion mirrors insertion: every dimension's label
// counter is decremented and only a counter that reaches zero removes the
// value from its engine (§IV.A: "only when the counter is zero, the label is
// deleted from the hardware architecture"). Like InsertRule, the deletion is
// built on a private clone and published atomically.
func (c *Classifier) DeleteRule(r fivetuple.Rule) (UpdateReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	next, err := c.view().clone(&c.cfg)
	if err != nil {
		return UpdateReport{}, err
	}
	report, _, err := next.deleteRule(r)
	if err != nil {
		// The clone is discarded whole, so a partially applied deletion can
		// never become visible.
		return UpdateReport{}, err
	}
	sync, err := next.syncPacket(&c.cfg)
	if err != nil {
		return UpdateReport{}, err
	}
	c.publish(next)
	c.stats.recordDelete(report)
	c.stats.recordPublish(sync, time.Since(start))
	return report, nil
}

// InstallRuleSet inserts every rule of the set in priority order as one
// atomic batch: the whole set is applied to a single clone of the data path
// and published with one swap, so concurrent lookups observe either none or
// all of the set. It returns the accumulated update report.
func (c *Classifier) InstallRuleSet(rs *fivetuple.RuleSet) (UpdateReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	next, err := c.view().clone(&c.cfg)
	if err != nil {
		return UpdateReport{}, err
	}
	var total UpdateReport
	inserted := 0
	for _, r := range rs.Rules() {
		rep, err := next.insertRule(&c.cfg, r)
		if err != nil {
			return total, fmt.Errorf("core: installing %q rule %d: %w", rs.Name, r.Priority, err)
		}
		total.NewLabels += rep.NewLabels
		total.EngineWrites += rep.EngineWrites
		total.RuleFilterProbes += rep.RuleFilterProbes
		total.ClockCycles += rep.ClockCycles
		inserted++
	}
	sync, err := next.syncPacket(&c.cfg)
	if err != nil {
		return total, err
	}
	c.publish(next)
	c.stats.recordUpdates(inserted, 0, total.ClockCycles)
	c.stats.recordPublish(sync, time.Since(start))
	return total, nil
}

// insertRule applies one insertion to this (unpublished) snapshot.
func (s *snapshot) insertRule(cfg *Config, r fivetuple.Rule) (UpdateReport, error) {
	if len(s.installed) >= cfg.RuleCapacityFor(s.engineName) {
		return UpdateReport{}, fmt.Errorf("%w: capacity %d under the %s configuration",
			ErrRuleFilterFull, cfg.RuleCapacityFor(s.engineName), s.engineName)
	}
	if dims := r.Dims(); dims != 0 {
		// Extended rules (IPv6/VLAN/TCP-flag/masked-proto/non-terminating)
		// bypass the five-tuple field tier entirely: no labels, no engine
		// writes, no rule-filter entry. They ride the installed shadow into
		// the whole-packet engine, so that engine must declare every
		// dimension the rule requires — otherwise the install is refused
		// rather than silently misclassified.
		if s.packetName == "" {
			return UpdateReport{}, fmt.Errorf("%w: rule %s requires dimensions %s but the %s field tier serves only the IPv4 five-tuple",
				ErrDimsUnsupported, r, dims, s.engineName)
		}
		if have := engine.Dims(s.packetName); !have.Covers(dims) {
			return UpdateReport{}, fmt.Errorf("%w: rule %s requires dimensions %s but engine %q declares %s",
				ErrDimsUnsupported, r, dims, s.packetName, have)
		}
		s.installed = append(s.installed, installedRule{rule: r, ext: true})
		s.packetPending = append(s.packetPending, packetDelta{rule: r})
		return UpdateReport{ClockCycles: hardwareUpdateCycles()}, nil
	}
	report := UpdateReport{ClockCycles: hardwareUpdateCycles()}

	// Track what has been acquired so a failure midway can be rolled back.
	// The snapshot is private until published, but InstallRuleSet keeps
	// inserting into the same clone after an individual failure is surfaced,
	// so the clone must stay internally consistent.
	type acquisition struct {
		dim label.Dimension
		key string
	}
	var (
		acquired  [label.NumDimensions]acquisition
		nAcquired int
	)
	rollback := func() {
		for i := nAcquired - 1; i >= 0; i-- {
			a := acquired[i]
			lbl, removed, err := s.labels.Table(a.dim).Release(a.key)
			if err != nil {
				continue
			}
			use := s.fieldUses[a.dim][a.key]
			if use != nil {
				use.remove(r.Priority)
				if use.empty() {
					delete(s.fieldUses[a.dim], a.key)
				}
			}
			if removed {
				// The value was created by this insertion; undo the engine
				// write.
				_, _ = s.removeFieldValue(a.dim, r, lbl)
			}
		}
	}

	var ruleLabels [label.NumDimensions + 1]label.Label
	for _, d := range label.Dimensions() {
		key := fieldValueKey(d, r)
		lbl, created, err := s.labels.Table(d).Acquire(key)
		if err != nil {
			rollback()
			return UpdateReport{}, fmt.Errorf("core: inserting rule %s: %w", r, err)
		}
		acquired[nAcquired] = acquisition{dim: d, key: key}
		nAcquired++
		ruleLabels[d] = lbl

		use, ok := s.fieldUses[d][key]
		if !ok {
			use = newFieldUse()
			s.fieldUses[d][key] = use
		}
		previousBest := use.best
		use.add(r.Priority)

		if created {
			report.NewLabels++
			writes, err := s.installFieldValue(d, r, lbl, r.Priority)
			report.EngineWrites += writes
			if err != nil {
				rollback()
				return UpdateReport{}, fmt.Errorf("core: inserting rule %s: %w", r, err)
			}
		} else if r.Priority < previousBest {
			// The existing label gained a better priority: the engine lists
			// must be reordered so the HPML invariant holds.
			writes, err := s.installFieldValue(d, r, lbl, r.Priority)
			report.EngineWrites += writes
			if err != nil {
				rollback()
				return UpdateReport{}, fmt.Errorf("core: inserting rule %s: %w", r, err)
			}
		}
	}

	key := label.PackKeyDims(&ruleLabels)
	_, probes, writes, err := s.filter.insert(key, r.Priority, r.Action, r.ActionArg)
	report.RuleFilterProbes = probes
	report.EngineWrites += writes
	if err != nil {
		rollback()
		return UpdateReport{}, fmt.Errorf("core: inserting rule %s: %w", r, err)
	}

	s.installed = append(s.installed, installedRule{rule: r, key: key})
	s.packetPending = append(s.packetPending, packetDelta{rule: r})
	return report, nil
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
	installed := s.installed[idx]
	report = UpdateReport{ClockCycles: hardwareUpdateCycles()}

	if installed.ext {
		// Extended rules hold no labels and no filter entry; only the
		// installed shadow and the packet tier know them.
		s.installed = append(s.installed[:idx], s.installed[idx+1:]...)
		s.packetPending = append(s.packetPending, packetDelta{delete: true, rule: installed.rule})
		return report, true, nil
	}

	found, probes := s.filter.remove(installed.key, installed.rule.Priority)
	report.RuleFilterProbes = probes
	if !found {
		return UpdateReport{}, false, fmt.Errorf("core: rule filter entry for %s missing", r)
	}

	for _, d := range label.Dimensions() {
		key := fieldValueKey(d, r)
		lbl, removed, err := s.labels.Table(d).Release(key)
		if err != nil {
			return report, true, fmt.Errorf("core: deleting rule %s: %w", r, err)
		}
		use := s.fieldUses[d][key]
		newBest, changed := use.remove(r.Priority)
		if removed {
			report.ReleasedLabels++
			delete(s.fieldUses[d], key)
			writes, err := s.removeFieldValue(d, r, lbl)
			report.EngineWrites += writes
			if err != nil {
				return report, true, fmt.Errorf("core: deleting rule %s: %w", r, err)
			}
			continue
		}
		if changed {
			if err := s.reprioritiseFieldValue(d, r, lbl, newBest); err != nil {
				return report, true, fmt.Errorf("core: deleting rule %s: %w", r, err)
			}
		}
	}

	s.installed = append(s.installed[:idx], s.installed[idx+1:]...)
	s.packetPending = append(s.packetPending, packetDelta{delete: true, rule: installed.rule})
	return report, true, nil
}

// UpdateCyclesPerRule returns the constant per-rule upload cost of the
// architecture (§V.A): 2 cycles of memory upload plus 1 hash cycle.
func UpdateCyclesPerRule() int { return hardwareUpdateCycles() }

// compile-time check that the hash unit's latency matches the update model.
var _ = [1]struct{}{}[hashunit.LatencyCycles-CyclesUpdateHash]

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
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	next, err := c.view().clone(&c.cfg)
	if err != nil {
		return nil, nil, err
	}
	reports = make([]UpdateReport, len(ops))
	errs = make([]error, len(ops))
	inserts, deletes, cycles := 0, 0, 0
	for i, op := range ops {
		if op.Delete {
			var mutated bool
			reports[i], mutated, errs[i] = next.deleteRule(op.Rule)
			if errs[i] != nil {
				if mutated {
					return nil, nil, fmt.Errorf("core: abandoning update batch at op %d: %w", i, errs[i])
				}
				continue
			}
			deletes++
			cycles += reports[i].ClockCycles
		} else {
			// insertRule rolls itself back on failure, so a failed insert
			// never poisons the working copy.
			reports[i], errs[i] = next.insertRule(&c.cfg, op.Rule)
			if errs[i] != nil {
				continue
			}
			inserts++
			cycles += reports[i].ClockCycles
		}
	}
	if inserts+deletes > 0 {
		sync, err := next.syncPacket(&c.cfg)
		if err != nil {
			return nil, nil, err
		}
		c.publish(next)
		c.stats.recordUpdates(inserts, deletes, cycles)
		c.stats.recordPublish(sync, time.Since(start))
	}
	return reports, errs, nil
}
