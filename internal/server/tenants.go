// Package server is the multi-tenant serving layer of the classifier: a
// tenant manager holding any number of independent sdnpc.Classifier tables,
// fronted by an HTTP/JSON wire API (see api.go for the routes and
// docs/SERVICE.md for the reference).
//
// This is the "millions of users" deployment shape of the paper's
// architecture: many small per-tenant rule sets served concurrently from one
// process, each with its own engine selection, microflow cache and update
// policy, instead of one big table. The package deliberately builds on the
// public facade only — every per-tenant capability it exposes over the wire
// (engine switching, batched rule CRUD through Apply, lookup counters,
// memory accounting) is one facade call, so the wire API cannot grow
// semantics the embedded API does not have.
package server

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"sdnpc"
)

// Errors returned by the tenant manager, mapped to HTTP statuses by the API
// layer.
var (
	ErrTenantExists   = errors.New("server: tenant already exists")
	ErrTenantNotFound = errors.New("server: tenant not found")
)

// tenantIDPattern constrains tenant identifiers to URL-path-safe names so
// they can be used verbatim in /v1/tenants/{id} routes.
var tenantIDPattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// TenantConfig is the per-tenant classifier configuration carried by the
// create request. The zero value selects the paper's defaults: field tier
// with the default engine, no microflow cache, default update policy.
type TenantConfig struct {
	// Engine selects the serving engine of either tier by registry name;
	// empty keeps the default.
	Engine string
	// CacheShards and CacheCapacity configure the microflow cache in front
	// of the tenant's engines; CacheCapacity is the tenant's total entry
	// budget, split across its serving lanes, and <= 0 disables the cache.
	CacheShards   int
	CacheCapacity int
	// RebuildAfterDeltas and DegradationThreshold tune the incremental
	// update plane (zero values select the defaults).
	RebuildAfterDeltas   int
	DegradationThreshold float64
}

// Tenant is one isolated classifier table: its own rules, engine selection,
// cache and counters. The embedded Classifier is safe for concurrent use, so
// a Tenant handed out by the manager stays valid (and lock-free for lookups)
// even while other handlers mutate or delete it.
type Tenant struct {
	ID      string
	Created time.Time
	Config  TenantConfig

	Classifier *sdnpc.Classifier
}

// Manager owns the tenant table. All methods are safe for concurrent use;
// the lock covers only the map, never a classifier operation, so one
// tenant's rebuild can never stall another tenant's create or classify.
type Manager struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// NewManager returns an empty tenant manager.
func NewManager() *Manager {
	return &Manager{tenants: make(map[string]*Tenant)}
}

// Create builds a classifier for the given tenant configuration and
// registers it under id. It fails with ErrTenantExists when the id is taken
// and with a validation error when the id or configuration is unusable; a
// failed create never registers a partial tenant.
func (m *Manager) Create(id string, cfg TenantConfig) (*Tenant, error) {
	if !tenantIDPattern.MatchString(id) {
		return nil, fmt.Errorf("server: invalid tenant id %q (want %s)", id, tenantIDPattern)
	}
	if cfg.Engine != "" && !engineSelectable(cfg.Engine) {
		return nil, fmt.Errorf("server: unknown engine %q (selectable: %v)", cfg.Engine, sdnpc.Engines())
	}
	opts := []sdnpc.Option{}
	if cfg.Engine != "" {
		opts = append(opts, sdnpc.WithEngine(cfg.Engine))
	}
	if cfg.CacheCapacity > 0 {
		opts = append(opts, sdnpc.WithCache(cfg.CacheShards, cfg.CacheCapacity))
	}
	if cfg.RebuildAfterDeltas != 0 || cfg.DegradationThreshold != 0 {
		opts = append(opts, sdnpc.WithUpdatePolicy(cfg.RebuildAfterDeltas, cfg.DegradationThreshold))
	}
	c, err := sdnpc.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("server: building tenant %q: %w", id, err)
	}
	t := &Tenant{ID: id, Created: time.Now().UTC(), Config: cfg, Classifier: c}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tenants[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	m.tenants[id] = t
	return t, nil
}

// Get returns the tenant registered under id.
func (m *Manager) Get(id string) (*Tenant, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	return t, nil
}

// Delete unregisters the tenant. In-flight requests holding the tenant keep
// a valid classifier; new requests no longer resolve the id.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tenants[id]; !ok {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, id)
	}
	delete(m.tenants, id)
	return nil
}

// List returns the registered tenants sorted by id.
func (m *Manager) List() []*Tenant {
	m.mu.RLock()
	out := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		out = append(out, t)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered tenants.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.tenants)
}

// engineSelectable reports whether name is a selectable engine of either
// tier.
func engineSelectable(name string) bool {
	for _, n := range sdnpc.Engines() {
		if n == name {
			return true
		}
	}
	return false
}
