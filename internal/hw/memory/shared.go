package memory

import "fmt"

// AlgSelect mirrors the IPalg_s configuration signal of the paper (Fig. 2,
// Fig. 5): it selects which IP lookup algorithm the architecture currently
// runs and therefore which data is stored in the shared memory blocks.
type AlgSelect uint8

// IP-algorithm selection values.
const (
	// SelectMBT configures the fast Multi-Bit Trie lookup.
	SelectMBT AlgSelect = iota + 1
	// SelectBST configures the memory-efficient Binary Search Tree lookup.
	SelectBST
)

// String names the selection.
func (s AlgSelect) String() string {
	switch s {
	case SelectMBT:
		return "MBT"
	case SelectBST:
		return "BST"
	default:
		return fmt.Sprintf("AlgSelect(%d)", uint8(s))
	}
}

// SharedBlock models the memory-sharing scheme of §IV.C.2 and Fig. 5: one
// physical block holds MBT level-2 node data ("Data 1") when the MBT is
// selected and the node data of the alternative engine ("Data 2" — BST
// interval nodes in the paper, any registered field engine here) otherwise.
// The uses require identical geometry — the condition the paper states for
// sharing to be possible — which is enforced at construction.
//
// Ownership is tracked by engine name so that any registered field engine
// can map onto the block.
//
// A second consequence of sharing (also Fig. 5) is that when a shared-
// resident engine is selected the remaining MBT blocks become free and are
// re-purposed as additional rule storage ("Data 3"); that reallocation is
// handled by the architecture (internal/core), not by this type.
type SharedBlock struct {
	physical *Block
	owner    string
}

// NewSharedBlockOwner wraps a physical block for shared use, initially owned
// by the named engine.
func NewSharedBlockOwner(physical *Block, owner string) *SharedBlock {
	return &SharedBlock{physical: physical, owner: owner}
}

// Physical returns the underlying block (for capacity accounting).
func (s *SharedBlock) Physical() *Block { return s.physical }

// Owner returns the name of the engine whose data currently occupies the
// block.
func (s *SharedBlock) Owner() string { return s.owner }

// SelectOwner hands the block to another engine's data. Switching clears the
// block contents: the controller must re-download the node data for the
// newly selected engine, exactly as the software control plane would
// re-programme the hardware after changing IPalg_s.
func (s *SharedBlock) SelectOwner(owner string) {
	if owner == s.owner {
		return
	}
	s.owner = owner
	s.physical.Clear()
}

// ViewOwner returns the physical block if the named engine currently owns
// it, and nil otherwise. Engines obtain their backing store through ViewOwner
// so that a misconfigured engine cannot silently corrupt another engine's
// data.
func (s *SharedBlock) ViewOwner(owner string) *Block {
	if owner != s.owner {
		return nil
	}
	return s.physical
}
