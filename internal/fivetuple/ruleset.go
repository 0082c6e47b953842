package fivetuple

import "fmt"

// RuleSet is an ordered collection of classification rules: a filter set in
// ClassBench terminology, a flow table in OpenFlow terminology.
type RuleSet struct {
	// Name identifies the filter set, e.g. "acl1-10k".
	Name string

	rules []Rule
}

// NewRuleSet builds a rule set from the given rules. Rule priorities are
// rewritten to match their position so that the set is internally consistent.
func NewRuleSet(name string, rules []Rule) *RuleSet {
	rs := &RuleSet{Name: name, rules: make([]Rule, len(rules))}
	copy(rs.rules, rules)
	for i := range rs.rules {
		rs.rules[i].Priority = i
	}
	return rs
}

// Len returns the number of rules in the set.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Rules returns a copy of the rules in priority order.
func (rs *RuleSet) Rules() []Rule {
	out := make([]Rule, len(rs.rules))
	copy(out, rs.rules)
	return out
}

// Rule returns the rule at the given priority position.
func (rs *RuleSet) Rule(i int) Rule { return rs.rules[i] }

// Append adds a rule at the lowest priority position and returns its index.
func (rs *RuleSet) Append(r Rule) int {
	r.Priority = len(rs.rules)
	rs.rules = append(rs.rules, r)
	return r.Priority
}

// Insert places the rule at priority position i (0 = highest priority),
// shifting lower-priority rules down. It panics if i is out of range.
func (rs *RuleSet) Insert(i int, r Rule) {
	if i < 0 || i > len(rs.rules) {
		panic(fmt.Sprintf("fivetuple: insert position %d out of range [0,%d]", i, len(rs.rules)))
	}
	rs.rules = append(rs.rules, Rule{})
	copy(rs.rules[i+1:], rs.rules[i:])
	rs.rules[i] = r
	rs.renumber()
}

// Remove deletes the rule at priority position i. It panics if i is out of
// range.
func (rs *RuleSet) Remove(i int) {
	if i < 0 || i >= len(rs.rules) {
		panic(fmt.Sprintf("fivetuple: remove position %d out of range [0,%d)", i, len(rs.rules)))
	}
	rs.rules = append(rs.rules[:i], rs.rules[i+1:]...)
	rs.renumber()
}

func (rs *RuleSet) renumber() {
	for i := range rs.rules {
		rs.rules[i].Priority = i
	}
}

// Classify performs a priority-ordered linear search and returns the index of
// the Highest Priority Matching Rule. The second result is false when no rule
// matches. This is the reference (ground-truth) classifier that every lookup
// engine in the repository is validated against.
func (rs *RuleSet) Classify(h Header) (int, bool) {
	for i, r := range rs.rules {
		if r.Matches(h) {
			return i, true
		}
	}
	return 0, false
}

// ClassifyAll returns the indices of the matching rules that contribute to
// the multi-action verdict, in priority order: every matching non-terminating
// rule up to and including the first matching terminating rule. This is the
// reference semantics for Classifier.LookupAll — for a set without
// non-terminating rules it returns at most one index, the HPMR.
func (rs *RuleSet) ClassifyAll(h Header) []int {
	var out []int
	for i, r := range rs.rules {
		if !r.Matches(h) {
			continue
		}
		out = append(out, i)
		if !r.NonTerminating {
			break
		}
	}
	return out
}

// UniqueFieldCount returns the number of distinct field keys present in the
// set for the given dimension — the "number of unique rule fields" reported
// in Table II of the paper, which determines the label-table sizes.
func (rs *RuleSet) UniqueFieldCount(f Field) int {
	seen := make(map[string]struct{}, len(rs.rules))
	for _, r := range rs.rules {
		seen[r.FieldKey(f)] = struct{}{}
	}
	return len(seen)
}
