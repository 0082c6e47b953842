package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"sdnpc/internal/engine"
	"sdnpc/internal/fieldtier"
	"sdnpc/internal/fivetuple"
)

// ErrRuleNotInstalled is returned when deleting a rule that is not present.
var ErrRuleNotInstalled = errors.New("core: rule not installed")

// ErrRuleFilterFull is returned when the field engine's Rule Filter has no
// free slot for a new rule: the one rule-count limit there is.
var ErrRuleFilterFull = fieldtier.ErrRuleFilterFull

// ErrDimsUnsupported is returned when installing a rule that requires
// extension dimensions (IPv6, VLAN, TCP flags, masked protocol,
// non-terminating semantics) the serving engine does not declare, or when
// switching to an engine that does not cover the installed rules' dimensions.
var ErrDimsUnsupported = errors.New("core: extension dimensions unsupported by engine")

// UpdateReport describes the cost of one rule insertion or deletion, as the
// field engine counts it (Fig. 4); under a whole-packet engine it is zero.
type UpdateReport = engine.UpdateReport

// delta is one rule mutation an update transaction applied to its working
// engine: one entry of the undo log.
type delta struct {
	delete bool
	rule   fivetuple.Rule
}

// to applies the delta to inc or, with undo, its inverse.
func (d delta) to(inc engine.IncrementalPacketEngine, undo bool) (UpdateReport, error) {
	if d.delete != undo {
		return inc.DeleteRule(d.rule)
	}
	return inc.InsertRule(d.rule)
}

// txn is one update transaction's writer state: the working snapshot, the
// ops it applied to the rule table and, in order, the deltas it applied to
// the working engine. The classifier reuses one under its writer lock.
type txn struct {
	// next is the published snapshot until working() makes it a private
	// clone (owned) at the first op that changes something.
	next  *snapshot
	owned bool
	// inc is next's engine while it takes deltas: nil when the engine is not
	// incremental or once the transaction has decided to rebuild it.
	inc              engine.IncrementalPacketEngine
	undo             []delta
	inserts, deletes int
	// left is how many ops of the batch follow the one being applied.
	left int
}

// update is the one rule-update transaction every entry point runs: with the
// writer mutex held it lets mutate apply its ops to a private clone of the
// published snapshot — each to the rule table and, at the op, to the engine
// — rebuilds the engine over the table when the transaction decided so,
// else prepares the engine its deltas left (engine.Preparer), so that a
// published snapshot never mutates itself inside a lookup, publishes the
// result with a single atomic swap and records the publish. Nothing is
// published (nor cloned, by an update that applies nothing) when mutate
// fails, when it applied no op, or when the rebuild fails: the clone is
// discarded, after the deltas applied to its engine are undone, last first
// — the field engine's label bank is shared with the published engine, and
// undoing hands every published value its label back.
func (c *Classifier) update(mutate func(tx *txn) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	tx := &c.tx
	tx.next = c.view()
	defer func() {
		// Keep a small undo log for the next transaction, not a large one.
		undo := tx.undo[:0]
		if cap(undo) > DefaultRebuildAfterDeltas {
			undo = nil
		}
		*tx = txn{undo: undo}
	}()
	err := mutate(tx)
	if !tx.owned || err == nil && tx.inserts+tx.deletes == 0 {
		return err
	}
	rebuilt := tx.inc == nil
	if err == nil {
		if rebuilt {
			err = tx.next.rebuild()
		} else if p, ok := tx.next.engine.(engine.Preparer); ok {
			p.Prepare()
		}
	}
	if err != nil {
		tx.abandon()
		return err
	}
	c.publish(tx.next)
	c.stats.recordUpdates(tx.inserts, tx.deletes)
	c.stats.recordPublish(len(tx.undo), rebuilt, time.Since(start))
	return nil
}

// working returns the transaction's private snapshot, cloning on first use.
func (tx *txn) working() *snapshot {
	if !tx.owned {
		tx.next, tx.owned = tx.next.clone(), true
		tx.inc, _ = tx.next.engine.(engine.IncrementalPacketEngine)
	}
	return tx.next
}

// apply hands one delta to the working engine at the op, while the engine's
// debt allows: an engine whose UpdateCost().Deltas would reach
// DefaultRebuildAfterDeltas within the batch, or whose degradation a delta
// pushes to DefaultDegradationThreshold, or that declines a delta, takes no
// more, and is rebuilt over the table before publishing. An engine that
// counts no deltas (the field engine) never reaches the bound. An error
// wrapping engine.ErrRefused is the op's own: the rule cannot be held.
func (tx *txn) apply(d delta) (UpdateReport, error) {
	inc := tx.inc
	if inc == nil {
		return UpdateReport{}, nil
	}
	if inc.UpdateCost().Deltas+1 >= DefaultRebuildAfterDeltas {
		tx.inc = nil
		return UpdateReport{}, nil
	}
	report, err := d.to(inc, false)
	if errors.Is(err, engine.ErrRefused) {
		return UpdateReport{}, err
	}
	if err != nil {
		tx.inc = nil
		return UpdateReport{}, nil
	}
	if cost := inc.UpdateCost(); cost.Degradation >= DefaultDegradationThreshold ||
		cost.Deltas > 0 && cost.Deltas+tx.left >= DefaultRebuildAfterDeltas {
		tx.inc = nil
	} else if len(tx.undo) == cap(tx.undo) {
		// The engine takes the rest of the batch: grow the log once.
		tx.undo = slices.Grow(tx.undo, tx.left+1)
	}
	tx.undo = append(tx.undo, d)
	return report, nil
}

// abandon undoes the deltas the transaction applied, last first, on the
// working engine, which is then dropped. An undo that fails has nothing to
// repair: every delta op is atomic, so what the engine shares with the
// published one (the field engine's label bank) is left as the op found it.
func (tx *txn) abandon() {
	inc, _ := tx.next.engine.(engine.IncrementalPacketEngine)
	for _, d := range slices.Backward(tx.undo) {
		_, _ = d.to(inc, true)
	}
}

// InsertRule installs one rule: under the field engine by the label-counted
// insert of Fig. 4 (fieldtier.Engine.InsertRule), under a whole-packet
// engine by splicing it into, or rebuilding, its precomputed structure.
//
// The update is applied to a private clone of the published snapshot and
// swapped in atomically, so concurrent lookups see the rule either fully
// installed or not at all. A failed insertion publishes nothing.
func (c *Classifier) InsertRule(r fivetuple.Rule) (report UpdateReport, err error) {
	err = c.update(func(tx *txn) (err error) { report, err = tx.insertRule(r); return err })
	if err != nil {
		report = UpdateReport{}
	}
	return report, err
}

// DeleteRule removes one installed rule, identified by its field matches and
// priority (the first installed, when several rules share both); under the
// field engine a value leaves its engine with its last use (§IV.A). Like
// InsertRule, the deletion is built on a private clone and published
// atomically.
func (c *Classifier) DeleteRule(r fivetuple.Rule) (report UpdateReport, err error) {
	err = c.update(func(tx *txn) (err error) { report, err = tx.deleteRule(r); return err })
	if err != nil {
		report = UpdateReport{}
	}
	return report, err
}

// InstallRuleSet inserts every rule of the set in priority order as one
// atomic batch: the whole set is applied to a single clone of the data path
// and published with one swap, so concurrent lookups observe either none or
// all of the set. It returns the accumulated update report.
func (c *Classifier) InstallRuleSet(rs *fivetuple.RuleSet) (total UpdateReport, err error) {
	err = c.update(func(tx *txn) error {
		// One exact-size growth, so the published snapshot does not hold
		// whatever spare capacity repeated appends happened to round up to.
		tx.working().table.ownIDs(rs.Len())
		for i, r := range rs.Rules() {
			tx.left = rs.Len() - 1 - i
			rep, err := tx.insertRule(r)
			if err != nil {
				return fmt.Errorf("core: installing %q rule %d: %w", rs.Name, r.Priority, err)
			}
			total.NewLabels += rep.NewLabels
			total.EngineWrites += rep.EngineWrites
			total.RuleFilterProbes += rep.RuleFilterProbes
		}
		return nil
	})
	if err != nil {
		total = UpdateReport{}
	}
	return total, err
}

// insertRule applies one insertion to the working snapshot: the engine's
// delta first, then the table, after every rule of the same or a better
// priority (ties stay in installation order). A failed insertion changes
// nothing.
func (tx *txn) insertRule(r fivetuple.Rule) (UpdateReport, error) {
	if err := tx.next.admit(r); err != nil {
		return UpdateReport{}, err
	}
	s := tx.working()
	report, err := tx.apply(delta{rule: r})
	if err != nil {
		return UpdateReport{}, fmt.Errorf("core: inserting rule %s: %w", r, err)
	}
	t := &s.table
	t.insert(t.bound(r.Priority, true), r)
	tx.inserts++
	return report, nil
}

// deleteRule applies one deletion to the working snapshot. A rule that is
// not installed changes nothing.
func (tx *txn) deleteRule(r fivetuple.Rule) (UpdateReport, error) {
	idx := tx.next.findInstalled(r)
	if idx < 0 {
		return UpdateReport{}, fmt.Errorf("%w: %s priority %d", ErrRuleNotInstalled, r, r.Priority)
	}
	t := &tx.working().table
	report, err := tx.apply(delta{delete: true, rule: *t.at(idx)})
	if err != nil {
		return UpdateReport{}, fmt.Errorf("core: deleting rule %s: %w", r, err)
	}
	t.delete(idx)
	tx.deletes++
	return report, nil
}

// UpdateOp is one rule mutation inside an update batch.
type UpdateOp struct {
	// Delete selects deletion; insertion otherwise.
	Delete bool
	Rule   fivetuple.Rule
}

// ApplyUpdates applies a mixed, ordered sequence of insertions and
// deletions as one batch: the published snapshot is cloned once, at the
// first op that changes something, every op is applied to the clone in
// order — to the rule table and, at the op, to the engine — and the result
// is published with a single swap. This is the amortised update path — a
// control plane streaming thousands of flow-mods pays one data-path copy per
// batch instead of one per rule.
//
// Ops are independent, as if issued separately: an op that fails (duplicate
// delete, a full Rule Filter, a rule the engine refuses) changes nothing and
// is skipped with its error recorded at its index in errs, and the remaining
// ops still apply. The batch is published when at least one op succeeded.
// One failure is batch-level instead, abandoning the whole batch unpublished
// with the error returned as err: a failed rebuild of the engine over the
// batch's final rule set (e.g. an RFC cross-product explosion, or a full
// Rule Filter once the field engine has declined a delta of the batch —
// capacity is refused at the delta, so an insert past the slots then fails
// the rebuild, not the op).
func (c *Classifier) ApplyUpdates(ops []UpdateOp) (reports []UpdateReport, errs []error, err error) {
	if len(ops) == 0 {
		return nil, nil, nil
	}
	reports = make([]UpdateReport, len(ops))
	errs = make([]error, len(ops))
	err = c.update(func(tx *txn) error {
		for i, op := range ops {
			tx.left = len(ops) - 1 - i
			if op.Delete {
				reports[i], errs[i] = tx.deleteRule(op.Rule)
			} else {
				reports[i], errs[i] = tx.insertRule(op.Rule)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return reports, errs, nil
}
