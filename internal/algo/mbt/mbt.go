// Package mbt implements the Multi-Bit Trie (MBT) single-field lookup
// engine, the fast IP-segment algorithm of the paper's configurable
// architecture (§IV.B, §IV.C).
//
// The engine looks up a fixed-width key (16 bits for the architecture's IP
// segments; up to 32 bits for the multi-level tries used by the Table I
// baselines) against a set of prefixes, each tagged with a label and a
// priority. A lookup returns the priority-ordered list of labels of every
// matching prefix together with the number of node-memory accesses
// performed — the quantity the paper's evaluation is based on.
//
// Structure: the trie is divided into levels of fixed stride (5, 5 and 6
// bits for the architecture's 16-bit segments). Each node is an array of
// 2^stride entries; an entry holds an optional child pointer and an optional
// label list containing the labels of all prefixes that terminate at this
// level and cover the entry (controlled prefix expansion). Because the
// structure is fixed, rule insertion and deletion are incremental — the
// property that makes the label method applicable (§III.C).
package mbt

import (
	"fmt"
	"slices"

	"sdnpc/internal/label"
)

// Config describes the trie geometry.
type Config struct {
	// KeyBits is the width of lookup keys and prefixes, at most 32.
	KeyBits int
	// Strides is the number of bits consumed per level; it must sum to
	// KeyBits.
	Strides []int
	// NodeEntryBits is the storage width of one node entry, used for memory
	// accounting. The architecture's entry holds a 13-bit child pointer, a
	// 13-bit label-list pointer and two valid flags, padded to 32 bits.
	NodeEntryBits int
	// LabelEntryBits is the width of one stored label in the Labels memory
	// block (13 bits for IP segments).
	LabelEntryBits int
}

// SegmentConfig returns the architecture's default geometry for one 16-bit
// IP segment: three levels with 5-, 5- and 6-bit strides (§IV.C).
func SegmentConfig() Config {
	return Config{KeyBits: 16, Strides: []int{5, 5, 6}, NodeEntryBits: 32, LabelEntryBits: 13}
}

// UniformConfig returns a trie over keyBits-wide keys with the given number
// of levels and near-uniform strides, as used by the Option 1 (5-level) and
// Option 2 (4-level) baselines of Table I.
func UniformConfig(keyBits, levels int) Config {
	strides := make([]int, levels)
	base := keyBits / levels
	extra := keyBits % levels
	for i := range strides {
		strides[i] = base
		if i < extra {
			strides[i]++
		}
	}
	return Config{KeyBits: keyBits, Strides: strides, NodeEntryBits: 32, LabelEntryBits: 13}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.KeyBits < 1 || c.KeyBits > 32 {
		return fmt.Errorf("mbt: key width %d out of range [1,32]", c.KeyBits)
	}
	if len(c.Strides) == 0 {
		return fmt.Errorf("mbt: at least one stride level is required")
	}
	sum := 0
	for i, s := range c.Strides {
		if s < 1 || s > 16 {
			return fmt.Errorf("mbt: stride %d at level %d out of range [1,16]", s, i)
		}
		sum += s
	}
	if sum != c.KeyBits {
		return fmt.Errorf("mbt: strides sum to %d, want %d", sum, c.KeyBits)
	}
	if c.NodeEntryBits < 1 {
		return fmt.Errorf("mbt: node entry width must be positive")
	}
	if c.LabelEntryBits < 1 {
		return fmt.Errorf("mbt: label entry width must be positive")
	}
	return nil
}

// Levels returns the number of trie levels.
func (c Config) Levels() int { return len(c.Strides) }

// entry is one slot of a trie node.
type entry struct {
	child  *node
	labels *label.List
}

// node is one trie node: an array of 2^stride entries. Its label lists
// belong to it; its children may be shared with other engines.
type node struct {
	// owner is the ownership of the engine that allocated or copied the
	// node. That engine writes the node in place; any other copies it first.
	owner   *ownership
	entries []entry
}

// ownership identifies, by address, the nodes one engine may write in place.
// It is not zero-sized: distinct zero-sized allocations may share an address.
type ownership struct{ _ byte }

// Engine is a Multi-Bit Trie lookup engine.
type Engine struct {
	cfg  Config
	root *node

	// own marks the nodes private to this engine. Clone replaces it on both
	// sides, turning every node reachable at that moment into shared,
	// immutable structure. Lookups never read it.
	own *ownership

	// nodes counts allocated nodes per level for memory accounting.
	nodesPerLevel []int
	labelEntries  int
}

// New creates an engine with the given configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, own: new(ownership), nodesPerLevel: make([]int, cfg.Levels())}
	e.root = e.allocNode(0)
	return e, nil
}

// MustNew is like New but panics on error; intended for static
// configurations validated by tests.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

func (e *Engine) allocNode(level int) *node {
	e.nodesPerLevel[level]++
	return &node{owner: e.own, entries: make([]entry, 1<<e.cfg.Strides[level])}
}

// writable returns n when this engine owns it and a copy it owns otherwise:
// the copy takes duplicates of the node's label lists and shares its
// children, which are copied in turn only if a write descends into them.
func (e *Engine) writable(n *node) *node {
	if n.owner == e.own {
		return n
	}
	c := &node{owner: e.own, entries: make([]entry, len(n.entries))}
	for i, en := range n.entries {
		if en.labels != nil {
			en.labels = en.labels.Clone()
		}
		c.entries[i] = en
	}
	return c
}

// checkPrefix validates an inserted or removed prefix.
func (e *Engine) checkPrefix(value uint32, bits uint8) error {
	if int(bits) > e.cfg.KeyBits {
		return fmt.Errorf("mbt: prefix length %d exceeds key width %d", bits, e.cfg.KeyBits)
	}
	if e.cfg.KeyBits < 32 && value >= 1<<e.cfg.KeyBits {
		return fmt.Errorf("mbt: prefix value %#x exceeds key width %d", value, e.cfg.KeyBits)
	}
	return nil
}

// span returns the entries of a node at the given level that a prefix with
// remaining significant bits left at that level covers, as [start, end): the
// 2^(stride-remaining) consecutive entries from the expanded chunk on
// (controlled prefix expansion).
func (e *Engine) span(value uint32, level, remaining int) (start, end int) {
	free := e.cfg.Strides[level] - remaining
	start = (e.chunk(value, level) >> free) << free
	return start, start + 1<<free
}

// Insert adds a prefix (value with the given number of significant leading
// bits) carrying a label and the priority of the best rule that uses it.
// Inserting an existing (prefix, label) pair refreshes the priority if the
// new one is better. The returned count is the number of node-entry writes,
// the engine-side cost of the incremental update. Nodes on the prefix's path
// that are shared with a clone are copied on the way down.
func (e *Engine) Insert(value uint32, bits uint8, lbl label.Label, priority int) (writes int, err error) {
	if err := e.checkPrefix(value, bits); err != nil {
		return 0, err
	}
	e.root = e.writable(e.root)
	return e.insert(e.root, 0, value, int(bits), lbl, priority), nil
}

// insert walks the trie from the writable node n placing the label on every
// entry covered by the prefix at its terminal level, allocating child nodes
// on the way. remaining is the number of prefix bits not consumed above n.
func (e *Engine) insert(n *node, level int, value uint32, remaining int, lbl label.Label, priority int) int {
	stride := e.cfg.Strides[level]
	if remaining <= stride {
		start, end := e.span(value, level, remaining)
		for i := start; i < end; i++ {
			if n.entries[i].labels == nil {
				n.entries[i].labels = &label.List{}
			}
			if !n.entries[i].labels.Has(lbl) {
				e.labelEntries++
			}
			n.entries[i].labels.Insert(label.PriorityLabel{Label: lbl, Priority: priority})
		}
		return end - start
	}
	// Descend.
	writes := 0
	en := &n.entries[e.chunk(value, level)]
	if en.child == nil {
		en.child = e.allocNode(level + 1)
		writes++ // writing the new child pointer
	} else {
		en.child = e.writable(en.child)
	}
	return writes + e.insert(en.child, level+1, value, remaining-stride, lbl, priority)
}

// Remove deletes a (prefix, label) pair. It reports the number of node-entry
// writes and an error if the pair is not present; an absent pair is found so
// before any node is copied or written.
func (e *Engine) Remove(value uint32, bits uint8, lbl label.Label) (writes int, err error) {
	if err := e.checkPrefix(value, bits); err != nil {
		return 0, err
	}
	if !e.stores(value, int(bits), lbl) {
		return 0, fmt.Errorf("mbt: prefix %#x/%d with label %d not present", value, bits, lbl)
	}
	e.root = e.writable(e.root)
	return e.remove(e.root, 0, value, int(bits), lbl), nil
}

// stores reports whether some entry the prefix covers at its terminal level
// lists the label.
func (e *Engine) stores(value uint32, remaining int, lbl label.Label) bool {
	n, level := e.root, 0
	for ; n != nil && remaining > e.cfg.Strides[level]; level++ {
		n = n.entries[e.chunk(value, level)].child
		remaining -= e.cfg.Strides[level]
	}
	if n == nil {
		return false
	}
	start, end := e.span(value, level, remaining)
	return slices.ContainsFunc(n.entries[start:end], func(en entry) bool {
		return en.labels != nil && en.labels.Has(lbl)
	})
}

// remove takes the label off every entry the prefix covers, below the
// writable node n, freeing the nodes the removal empties. The pair is known
// to be stored.
func (e *Engine) remove(n *node, level int, value uint32, remaining int, lbl label.Label) (writes int) {
	stride := e.cfg.Strides[level]
	if remaining <= stride {
		start, end := e.span(value, level, remaining)
		for i := start; i < end; i++ {
			lst := n.entries[i].labels
			if lst != nil && lst.Remove(lbl) {
				writes++
				e.labelEntries--
				if lst.Len() == 0 {
					n.entries[i].labels = nil
				}
			}
		}
		return writes
	}
	en := &n.entries[e.chunk(value, level)]
	en.child = e.writable(en.child)
	writes = e.remove(en.child, level+1, value, remaining-stride, lbl)
	if childIsEmpty(en.child) {
		en.child = nil
		e.nodesPerLevel[level+1]--
		writes++
	}
	return writes
}

func childIsEmpty(n *node) bool {
	for _, en := range n.entries {
		if en.child != nil || (en.labels != nil && en.labels.Len() > 0) {
			return false
		}
	}
	return true
}

// chunk extracts the stride-sized slice of the key addressed by the given
// level.
func (e *Engine) chunk(value uint32, level int) int {
	shift := e.cfg.KeyBits
	for i := 0; i <= level; i++ {
		shift -= e.cfg.Strides[i]
	}
	return int(value>>shift) & ((1 << e.cfg.Strides[level]) - 1)
}

// Lookup returns the priority-ordered list of labels of every prefix
// matching the key, and the number of node-memory accesses performed (one
// per level visited). The returned list is freshly allocated and safe to
// modify.
func (e *Engine) Lookup(key uint32) (*label.List, int) {
	result := &label.List{}
	return result, e.LookupInto(key, result)
}

// LookupInto is the allocation-free variant of Lookup: it resets out, fills
// it with the matching labels and returns the access count.
func (e *Engine) LookupInto(key uint32, out *label.List) int {
	out.Reset()
	level := 0
	for n := e.root; n != nil; level++ {
		en := n.entries[e.chunk(key, level)]
		if en.labels != nil {
			out.Merge(en.labels)
		}
		n = en.child
	}
	return level
}

// WorstCaseAccesses returns the maximum number of node accesses a lookup can
// take: the number of levels.
func (e *Engine) WorstCaseAccesses() int { return e.cfg.Levels() }

// NodeCount returns the number of allocated trie nodes.
func (e *Engine) NodeCount() int {
	total := 0
	for _, n := range e.nodesPerLevel {
		total += n
	}
	return total
}

// NodesPerLevel returns the allocated node count of each level.
func (e *Engine) NodesPerLevel() []int {
	out := make([]int, len(e.nodesPerLevel))
	copy(out, e.nodesPerLevel)
	return out
}

// MemoryBits returns the node storage consumed by the trie: every allocated
// node occupies 2^stride entries of NodeEntryBits.
func (e *Engine) MemoryBits() int {
	bits := 0
	for level, count := range e.nodesPerLevel {
		bits += count * (1 << e.cfg.Strides[level]) * e.cfg.NodeEntryBits
	}
	return bits
}

// LabelListBits returns the Labels-memory storage consumed by the label
// lists referenced from trie entries.
func (e *Engine) LabelListBits() int {
	return e.labelEntries * e.cfg.LabelEntryBits
}

// Clone returns an independent copy of the engine in O(1): the two share
// every node until one of them writes, and a write copies the nodes on its
// path first (see writable), so mutating either is never visible through the
// other. Both sides give up their ownership of the shared nodes — on the
// receiver that is one word, written under the caller's writer lock, that no
// lookup reads, so readers may keep traversing the receiver meanwhile. The
// copy-on-write update path of internal/core relies on this to build a new
// classifier snapshot while readers keep traversing the old trie.
func (e *Engine) Clone() *Engine {
	e.own = new(ownership)
	return &Engine{
		cfg:           e.cfg,
		root:          e.root,
		own:           new(ownership),
		nodesPerLevel: append([]int(nil), e.nodesPerLevel...),
		labelEntries:  e.labelEntries,
	}
}
