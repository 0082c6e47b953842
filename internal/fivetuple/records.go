package fivetuple

import (
	"fmt"

	"sdnpc/internal/cow"
)

// DeadSlack is how far the retired ids of a Records may outnumber its live
// rules before a delete is refused.
const DeadSlack = 64

// DeltaStats is the delta debt a Records has accumulated since its build.
type DeltaStats struct {
	// Deltas is the number of Insert/Delete ops applied since the build.
	Deltas int
	// DeadIDs is the number of ids deletes retired since the build.
	DeadIDs int
	// Writes is the number of structure entries those ops wrote or removed.
	Writes int
}

// Records is the bookkeeping a delta-updated packet structure (the HyperCuts
// tree, the DCFL tables) keeps beside its search structure: the rules'
// packed records by stable id, the live count and the delta debt.
//
// The build numbers the rules best-first and an insert appends, so ids only
// grow between builds and (priority, id) is the best-first order, ties
// included. A delete retires its id instead of reusing it, which keeps that
// order with no sequence numbers. The records of retired ids stay until the
// next build, so a delete that would leave more dead ids than live ones plus
// DeadSlack is refused: the caller rebuilds, which renumbers. The records sit
// in copy-on-write chunks, so an insert writes the one chunk it fills.
type Records struct {
	// name names the structure in every error.
	name   string
	recs   cow.Array[PackedRule]
	live   int
	deltas int
	writes int
}

// NewRecords returns the records of a fresh build over rules, best-first,
// rule i under id i, each with the priority it has. It refuses an empty set
// and a rule the record cannot encode, naming the dimension, and keeps
// nothing of the slice.
func NewRecords(name string, rules []Rule) (Records, error) {
	if len(rules) == 0 {
		return Records{}, fmt.Errorf("%s: empty rule set", name)
	}
	s := Records{name: name, live: len(rules)}
	recs := make([]PackedRule, len(rules), (len(rules)+cow.ChunkLen-1)&^(cow.ChunkLen-1))
	for i := range rules {
		var err error
		if recs[i], err = s.pack(&rules[i]); err != nil {
			return Records{}, err
		}
	}
	s.recs = cow.Adopt(recs)
	return s, nil
}

// pack returns r's record, or an error naming the dimensions it cannot
// encode.
func (s *Records) pack(r *Rule) (PackedRule, error) {
	p, ok := PackRule(r)
	if !ok {
		return p, fmt.Errorf("%s: rule %s needs %s, which a packed record cannot encode", s.name, *r, r.Dims()&^DimMultiAction)
	}
	return p, nil
}

// At returns the record of id, live or retired, for reading only.
func (s *Records) At(id int) *PackedRule { return s.recs.At(id) }

// IDs returns the number of ids issued since the build, live and retired.
func (s *Records) IDs() int { return s.recs.Len() }

// NumRules returns the number of live rules.
func (s *Records) NumRules() int { return s.live }

// Verdict returns the verdict of the rule with the given id, with the
// priority it was built or inserted with.
func (s *Records) Verdict(id int) Verdict { return s.recs.At(id).Verdict() }

// DeltaStats returns the delta debt since the build.
func (s *Records) DeltaStats() DeltaStats {
	return DeltaStats{Deltas: s.deltas, DeadIDs: s.recs.Len() - s.live, Writes: s.writes}
}

// Clone returns records sharing s's chunks; a write on either side copies
// the chunk it lands in. Like cow.Array.Clone it writes s's ownership, so it
// needs the same serialisation as a delta, though no reader of s sees it.
func (s *Records) Clone() Records {
	cp := *s
	cp.recs = s.recs.Clone()
	return cp
}

// Insert appends r's record under the next id and lets place add the id to
// the structure, returning the entries it wrote. It refuses, changing
// nothing, a rule the record cannot encode.
func (s *Records) Insert(r *Rule, place func(p *PackedRule, id uint32) (writes int)) error {
	p, err := s.pack(r)
	if err != nil {
		return err
	}
	id := s.recs.Len()
	s.recs.Append(p)
	s.live++
	s.writes += place(s.recs.At(id), uint32(id))
	s.deltas++
	return nil
}

// Delete retires the id remove takes out of the structure: that of the
// first-installed rule with r's matches and priority. remove returns the
// entries it wrote, or false, having written nothing, when no such rule is
// installed. A refused delete — no such rule (a rule the record cannot
// encode never is), or too many dead ids already — changes nothing.
func (s *Records) Delete(r *Rule, remove func(p PackedRule) (writes int, ok bool)) error {
	p, ok := PackRule(r)
	if !ok {
		return fmt.Errorf("%s: rule %s priority %d is not installed", s.name, *r, r.Priority)
	}
	return s.retire(p, remove)
}

// InsertAt is Insert behind the positional signature of the benchmark's
// structure ladder: idx must lie in [0, NumRules()], and r goes where its
// priority places it — at idx when priorities are the best-first positions,
// as a RuleSet numbers them.
func (s *Records) InsertAt(r *Rule, idx int, place func(p *PackedRule, id uint32) (writes int)) error {
	if idx < 0 || idx > s.live {
		return fmt.Errorf("%s: insert index %d out of range [0,%d]", s.name, idx, s.live)
	}
	return s.Insert(r, place)
}

// DeleteAt is Delete of the rule with the matches and priority of rule id.
// On a structure built from a RuleSet, id is the rule's best-first position
// until the first delta.
func (s *Records) DeleteAt(id int, remove func(p PackedRule) (writes int, ok bool)) error {
	if id < 0 || id >= s.recs.Len() {
		return fmt.Errorf("%s: delete id %d out of range [0,%d)", s.name, id, s.recs.Len())
	}
	return s.retire(*s.recs.At(id), remove)
}

// retire is Delete of the rule with p's matches and priority.
func (s *Records) retire(p PackedRule, remove func(p PackedRule) (writes int, ok bool)) error {
	if dead := s.recs.Len() - s.live; dead+1 > s.live-1+DeadSlack {
		return fmt.Errorf("%s: %d dead ids beside %d live rules: rebuild to renumber", s.name, dead, s.live)
	}
	writes, ok := remove(p)
	if !ok {
		return fmt.Errorf("%s: no rule with these matches is installed at priority %d", s.name, p.Priority)
	}
	s.live--
	s.writes += writes
	s.deltas++
	return nil
}
