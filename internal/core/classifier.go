package core

import (
	"cmp"
	"sync"
	"sync/atomic"

	"sdnpc/internal/fivetuple"
)

// Classifier is one instance of the configurable packet classification
// architecture.
//
// One engine.PacketEngine serves the header: under an IP-capable engine
// name the paper's field engine (internal/fieldtier), whose four IP-segment
// dimensions run the named engine (switchable at run time via SelectEngine —
// the generalised IPalg_s signal), the port dimensions the register bank and
// the protocol dimension the LUT; under any other name a whole-packet
// engine. The classifier itself never dispatches on an algorithm name; every
// call goes through the engine interfaces.
//
// Classifier is safe for concurrent use. The serving path is RCU-style: the
// complete data path lives in an immutable snapshot behind an atomic
// pointer, so any number of goroutines can call Lookup and LookupBatch
// lock-free. Updates (InsertRule, DeleteRule, InstallRuleSet, ApplyUpdates,
// SelectEngine) serialise on an internal mutex, build the next snapshot
// off to the side — cloning the current one and mutating the private copy,
// or building a fresh engine on an engine switch — and publish it with a
// single atomic swap. A lookup that raced an update returns a result
// consistent with either the old or the new rule set, never a half-applied
// mixture; this mirrors the modelled hardware, where the controller
// re-downloads memory images and flips them in atomically.
type Classifier struct {
	cfg Config

	// mu serialises writers; readers never take it.
	mu sync.Mutex

	// snap is the published snapshot read by the lock-free lookup path.
	snap atomic.Pointer[snapshot]

	// gen numbers published snapshots. publish assigns the next value to
	// every snapshot it stores, so two published snapshots never share a
	// generation and microflow-cache entries can be keyed by it.
	gen atomic.Uint64

	// lanes holds the serving lanes — the optional microflow caches in
	// front of the engine and the lookup counters, one per processor.
	lanes *lanes

	// stats is the update-plane collector; lookups account to their lane.
	stats statsCollector

	// tx is the writer's transaction state, reused under mu (see update).
	tx txn
}

// New creates a classifier with the given configuration.
func New(cfg Config) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Classifier{cfg: cfg}
	c.lanes = newLanes(&c.cfg)
	// PacketEngine, when set, wins over IPEngine.
	name := cmp.Or(cfg.PacketEngine, cfg.IPEngine)
	s, err := newSnapshot(&c.cfg, name, nil)
	if err != nil {
		return nil, err
	}
	c.publish(s)
	return c, nil
}

// MustNew is like New but panics on error.
func MustNew(cfg Config) *Classifier {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// view returns the published snapshot. The returned snapshot is immutable
// and remains valid even if an update publishes a successor while the caller
// is still reading it.
func (c *Classifier) view() *snapshot { return c.snap.Load() }

// publish stamps a prepared snapshot with the next generation and makes it
// the one served to readers. Its engine is prepared already: an Install
// prepares itself, and update prepares an engine that took deltas. The
// fresh generation is what retires every microflow-cache entry filled under
// predecessors: entries are only served to readers of the generation that
// filled them, so the swap invalidates the cache in O(1) with no flush.
// Every lane serves the snapshot from the moment of the swap.
func (c *Classifier) publish(s *snapshot) {
	s.gen = c.gen.Add(1)
	c.snap.Store(s)
}

// Generation returns the generation of the published snapshot.
func (c *Classifier) Generation() uint64 { return c.view().gen }

// CacheEnabled reports whether the microflow cache is configured (one per
// lane).
func (c *Classifier) CacheEnabled() bool { return c.cfg.CacheCapacity > 0 }

// Config returns the classifier configuration, which never changes after
// New.
func (c *Classifier) Config() Config { return c.cfg }

// ActiveEngineName returns the name of the engine answering lookups: the
// whole-packet engine or IP-segment field engine the classifier was last
// configured or switched to.
func (c *Classifier) ActiveEngineName() string { return c.view().name }

// RuleCount returns the number of installed rules.
func (c *Classifier) RuleCount() int { return c.view().table.len() }

// InstalledRules returns a copy of the rule table: the installed rules
// best-first — ascending priority, rules of equal priority in installation
// order.
func (c *Classifier) InstalledRules() []fivetuple.Rule {
	return c.view().table.copyRules()
}

// SelectEngine selects any registered serving engine by name — the
// generalised IPalg_s signal (§III.A). It builds a fresh engine for the name
// (for an IP-segment engine: the field engine, whose Rule Filter is
// provisioned for that engine (Fig. 5); for a whole-packet engine: its
// precomputed structure), programmes it from the installed rules
// and atomically swaps it in, exactly as the software controller would
// re-download the memory images after a configuration change; the previous
// engine is dropped with the snapshot that held it.
// Lookups racing the switch are served by the old data path until the swap;
// none ever observes a half-programmed engine. Everything is staged on an
// unpublished snapshot, so a failed switch — an engine that cannot hold the
// installed rules or does not cover their dimensions — leaves the serving
// state exactly as it was. Selecting the already-active engine is a no-op.
// This is the engine selection the facade, the engine flags and the wire
// API's PUT …/engine resolve through.
func (c *Classifier) SelectEngine(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	current := c.view()
	if name == current.name {
		return nil
	}
	next, err := newSnapshot(&c.cfg, name, current.table.copyRules())
	if err != nil {
		return err
	}
	c.publish(next)
	return nil
}
