package engine

import (
	"fmt"
	"sort"
	"sync"

	"sdnpc/internal/fivetuple"
)

// Spec carries the architecture geometry a factory needs to build one engine
// instance for one dimension. Factories ignore the fields that do not apply
// to them.
type Spec struct {
	// KeyBits is the width of the dimension's lookup keys (16 for IP
	// segments and ports, 8 for the protocol).
	KeyBits int
	// LabelBits is the width of one stored label in the Labels memory block
	// (13 for IP segments, 7 for ports, 2 for the protocol).
	LabelBits int
	// Registers is the register budget of register-bank engines.
	Registers int
}

// Factory builds one engine instance for one dimension.
type Factory func(spec Spec) (FieldEngine, error)

// Definition describes one registered engine of either tier.
type Definition struct {
	// Name is the registry key ("mbt", "bst", "rfc-full", ...). Selection by
	// configuration and by the engine flags uses this name.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Factory builds single-field engine instances. Exactly one of Factory
	// and PacketFactory must be set.
	Factory Factory
	// PacketFactory builds whole-packet engine instances: setting it makes
	// the definition a second-tier (PacketEngine) entry. Instances that
	// implement IncrementalPacketEngine take deltas.
	PacketFactory PacketFactory
	// IPCapable marks engines that can serve the 16-bit IP-segment
	// dimensions (they accept KindPrefix values).
	IPCapable bool
	// SharesLevel2 marks engines whose node data fits in the MBT level-2
	// block of Fig. 5, freeing the remaining MBT blocks for additional rule
	// storage (the BST-style capacity bonus of Table VI). It feeds the
	// field engine's Rule Filter size (fieldtier.RuleCapacityFor).
	SharesLevel2 bool
	// Dims declares the extension dimensions beyond the classic IPv4
	// first-match five-tuple this engine serves (IPv6 prefixes, VLAN tags,
	// TCP-flag masks, partial protocol masks, non-terminating rules). The
	// classifier refuses to install a rule requiring dimensions outside
	// this set — an engine either serves a dimension or honestly declines
	// it; it never silently misclassifies. A Dims containing DimMultiAction
	// promises the packet instances implement MultiMatchPacketEngine.
	Dims fivetuple.DimSet
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Definition)
)

// Register adds an engine definition to the registry. Registering an empty
// name, no factory (or both tiers' factories), or a duplicate name is an
// error.
func Register(def Definition) error {
	if def.Name == "" {
		return fmt.Errorf("engine: cannot register an empty engine name")
	}
	if def.Factory == nil && def.PacketFactory == nil {
		return fmt.Errorf("engine: engine %q has no factory", def.Name)
	}
	if def.Factory != nil && def.PacketFactory != nil {
		return fmt.Errorf("engine: engine %q registers both a field and a packet factory", def.Name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, exists := registry[def.Name]; exists {
		return fmt.Errorf("engine: engine %q already registered", def.Name)
	}
	registry[def.Name] = def
	return nil
}

// MustRegister is like Register but panics on error; intended for built-in
// registrations at init time.
func MustRegister(def Definition) {
	if err := Register(def); err != nil {
		panic(err)
	}
}

// Get returns the definition registered under the name.
func Get(name string) (Definition, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	def, ok := registry[name]
	return def, ok
}

// New builds an engine instance by registered name.
func New(name string, spec Spec) (FieldEngine, error) {
	def, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (registered: %v)", name, Names())
	}
	eng, err := def.Factory(spec)
	if err != nil {
		return nil, fmt.Errorf("engine: building %q: %w", name, err)
	}
	return eng, nil
}

// Names returns every registered engine name, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// IPEngineNames returns the sorted names of the engines that can serve the
// IP-segment dimensions — the values the IPEngine configuration field and
// the -ip-engine flags accept.
func IPEngineNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name, def := range registry {
		if def.IPCapable {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Dims returns the extension-dimension set declared by the named engine. An
// unknown name declares nothing.
func Dims(name string) fivetuple.DimSet {
	def, ok := Get(name)
	if !ok {
		return 0
	}
	return def.Dims
}
