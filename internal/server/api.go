package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"time"

	"sdnpc"
)

// maxBodyBytes bounds every request body; a full 10k-rule batch install is
// ~1 MiB of JSON, so 8 MiB leaves generous headroom without letting one
// client balloon the process.
const maxBodyBytes = 8 << 20

// maxBatchHeaders bounds one classify-batch request. Larger loads should be
// split across requests (which is also what amortises better on the wire).
const maxBatchHeaders = 1 << 16

// api holds the handler state: the tenant table and the request logger.
type api struct {
	mgr *Manager
	log *slog.Logger
}

// routes maps every wire-API pattern to its handler. This table is the
// single source of truth for the served surface: the mux is built from it
// and Routes exposes it to the docs check, so a route cannot be registered
// without being documented (or documented without existing).
func (a *api) routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"GET /healthz":                         a.handleHealthz,
		"GET /v1/stats":                        a.handleGlobalStats,
		"GET /v1/tenants":                      a.handleListTenants,
		"POST /v1/tenants":                     a.handleCreateTenant,
		"GET /v1/tenants/{id}":                 a.handleGetTenant,
		"DELETE /v1/tenants/{id}":              a.handleDeleteTenant,
		"GET /v1/tenants/{id}/rules":           a.handleGetRules,
		"POST /v1/tenants/{id}/rules":          a.handlePostRules,
		"DELETE /v1/tenants/{id}/rules":        a.handleDeleteRule,
		"PUT /v1/tenants/{id}/engine":          a.handlePutEngine,
		"POST /v1/tenants/{id}/classify":       a.handleClassify,
		"POST /v1/tenants/{id}/classify-batch": a.handleClassifyBatch,
		"GET /v1/tenants/{id}/stats":           a.handleTenantStats,
	}
}

// Routes returns every registered route pattern, sorted — the list
// docs/SERVICE.md must cover (checked by docs_test.go in CI).
func Routes() []string {
	a := &api{}
	patterns := make([]string, 0, len(a.routes()))
	for p := range a.routes() {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	return patterns
}

// Wire forms of the management payloads.

// CreateTenantRequest is the POST /v1/tenants body.
type CreateTenantRequest struct {
	ID            string `json:"id"`
	Engine        string `json:"engine,omitempty"`
	CacheShards   int    `json:"cache_shards,omitempty"`
	CacheCapacity int    `json:"cache_capacity,omitempty"`
}

// WireTenant describes one tenant in list/get/create responses.
type WireTenant struct {
	ID           string    `json:"id"`
	Engine       string    `json:"engine"`
	Rules        int       `json:"rules"`
	RuleCapacity int       `json:"rule_capacity"`
	CacheEnabled bool      `json:"cache_enabled"`
	Created      time.Time `json:"created"`
}

// WireRuleOp is one mutation of a batch rule update.
type WireRuleOp struct {
	// Op is "insert" or "delete".
	Op   string   `json:"op"`
	Rule WireRule `json:"rule"`
}

// RulesRequest is the POST /v1/tenants/{id}/rules body: either one bare
// rule object (single insert), a "rules" list (batch insert) or an "ops"
// list (mixed batch CRUD). Exactly one form must be used.
type RulesRequest struct {
	Rules []WireRule   `json:"rules,omitempty"`
	Ops   []WireRuleOp `json:"ops,omitempty"`
	// The embedded rule carries the single-insert form: a bare rule object
	// unmarshals into these promoted fields.
	WireRule
}

// WireOpError reports one failed op of a batch by its index.
type WireOpError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// RulesResponse summarises one rule-CRUD request.
type RulesResponse struct {
	Installed int           `json:"installed"`
	Deleted   int           `json:"deleted"`
	Rules     int           `json:"rules"`
	Errors    []WireOpError `json:"errors,omitempty"`
}

// ClassifyBatchRequest is the POST /v1/tenants/{id}/classify-batch body.
type ClassifyBatchRequest struct {
	Headers []WireHeader `json:"headers"`
}

// WireBatchReport aggregates one classify-batch response.
type WireBatchReport struct {
	Packets   int     `json:"packets"`
	Matched   int     `json:"matched"`
	MatchRate float64 `json:"match_rate"`
}

// ClassifyBatchResponse is the classify-batch reply: one verdict per header,
// in order, plus the batch aggregation.
type ClassifyBatchResponse struct {
	Results []WireResult    `json:"results"`
	Report  WireBatchReport `json:"report"`
}

// WireCacheStats reports a tenant's microflow-cache counters.
type WireCacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
	Entries   int     `json:"entries"`
	Bits      int     `json:"bits"`
}

// WireUpdateStats reports a tenant's update-plane counters.
type WireUpdateStats struct {
	Inserts        uint64 `json:"inserts"`
	Deletes        uint64 `json:"deletes"`
	DeltaPublishes uint64 `json:"delta_publishes"`
	DeltasApplied  uint64 `json:"deltas_applied"`
	Rebuilds       uint64 `json:"rebuilds"`
	DeltaDebt      int    `json:"delta_debt"`
	PublishP50Ns   int64  `json:"publish_p50_ns"`
	PublishP99Ns   int64  `json:"publish_p99_ns"`
}

// WireTenantStats is the GET /v1/tenants/{id}/stats payload.
type WireTenantStats struct {
	ID           string `json:"id"`
	Engine       string `json:"engine"`
	Rules        int    `json:"rules"`
	RuleCapacity int    `json:"rule_capacity"`
	// Lookups and Matched are the tenant's served-request counters
	// (Report().Stats), i.e. what this process actually answered.
	Lookups   uint64  `json:"lookups"`
	Matched   uint64  `json:"matched"`
	MatchRate float64 `json:"match_rate"`
	// MemoryBits is the tenant's occupied classifier memory (engines,
	// labels, rule filter, packet structure).
	MemoryBits int             `json:"memory_bits"`
	Cache      *WireCacheStats `json:"cache,omitempty"`
	Update     WireUpdateStats `json:"update"`
}

// WireGlobalStats is the GET /v1/stats payload: the shared-memory and
// served-traffic accounting summed across every tenant, plus the per-tenant
// breakdown.
type WireGlobalStats struct {
	Tenants    int               `json:"tenants"`
	Lookups    uint64            `json:"lookups"`
	Matched    uint64            `json:"matched"`
	MemoryBits int               `json:"memory_bits"`
	CacheBits  int               `json:"cache_bits"`
	PerTenant  []WireTenantStats `json:"per_tenant"`
}

// errorResponse is the uniform error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is out; a broken client connection is not recoverable here
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// readJSON decodes the request body into v, bounding its size and rejecting
// trailing garbage.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeOne(json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)), v)
}

// readJSONStrict is readJSON for a body in which every field is
// configuration: a field v does not declare is an error naming it, so a
// misspelt knob is refused instead of silently leaving its default in force.
func readJSONStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return decodeOne(dec, v)
}

// decodeOne decodes exactly one JSON value from dec into v.
func decodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("request body holds more than one JSON value")
	}
	return nil
}

// tenant resolves the {id} path value, writing the 404 itself on a miss.
func (a *api) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	t, err := a.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return t, true
}

func wireTenant(t *Tenant) WireTenant {
	rep := t.Classifier.Report()
	return WireTenant{
		ID:           t.ID,
		Engine:       rep.ActiveEngine,
		Rules:        rep.RulesInstalled,
		RuleCapacity: rep.RuleCapacity,
		CacheEnabled: rep.CacheEnabled,
		Created:      t.Created,
	}
}

// wireTenantStats assembles one tenant's stats payload from a single
// Report call: every surface (served-request counters, update totals,
// update plane, cache, memory accounting) comes from one snapshot, so the
// payload can never mix pre- and post-update views of the same tenant.
func wireTenantStats(t *Tenant) WireTenantStats {
	rep := t.Classifier.Report()
	ws := WireTenantStats{
		ID:           t.ID,
		Engine:       rep.ActiveEngine,
		Rules:        rep.RulesInstalled,
		RuleCapacity: rep.RuleCapacity,
		Lookups:      rep.Stats.Lookups,
		Matched:      rep.Stats.Matches,
		MatchRate:    rep.Stats.MatchRate(),
		MemoryBits:   rep.Memory.TotalUsedBits(),
		Update: WireUpdateStats{
			Inserts:        rep.Stats.Inserts,
			Deletes:        rep.Stats.Deletes,
			DeltaPublishes: rep.Updates.DeltaPublishes,
			DeltasApplied:  rep.Updates.DeltasApplied,
			Rebuilds:       rep.Updates.Rebuilds,
			DeltaDebt:      rep.Updates.DeltasSinceRebuild,
			PublishP50Ns:   rep.Updates.PublishLatency.P50().Nanoseconds(),
			PublishP99Ns:   rep.Updates.PublishLatency.P99().Nanoseconds(),
		},
	}
	if rep.CacheEnabled {
		ws.Cache = &WireCacheStats{
			Hits:      rep.Cache.Hits,
			Misses:    rep.Cache.Misses,
			Evictions: rep.Cache.Evictions,
			HitRate:   rep.Cache.HitRate(),
			Entries:   rep.Memory.CacheEntries,
			Bits:      rep.Memory.CacheBits,
		}
	}
	return ws
}

// --- handlers ---

func (a *api) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "tenants": a.mgr.Len()})
}

func (a *api) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	if err := readJSONStrict(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	t, err := a.mgr.Create(req.ID, TenantConfig{
		Engine:        req.Engine,
		CacheShards:   req.CacheShards,
		CacheCapacity: req.CacheCapacity,
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrTenantExists) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	a.log.Info("tenant created", "tenant", t.ID, "engine", t.Classifier.Engine())
	writeJSON(w, http.StatusCreated, wireTenant(t))
}

func (a *api) handleListTenants(w http.ResponseWriter, r *http.Request) {
	tenants := a.mgr.List()
	out := make([]WireTenant, len(tenants))
	for i, t := range tenants {
		out[i] = wireTenant(t)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

func (a *api) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, wireTenant(t))
}

func (a *api) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.mgr.Delete(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	a.log.Info("tenant deleted", "tenant", id)
	w.WriteHeader(http.StatusNoContent)
}

func (a *api) handleGetRules(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	rules := t.Classifier.Rules()
	out := make([]WireRule, len(rules))
	for i, rule := range rules {
		out[i] = EncodeRule(rule)
	}
	writeJSON(w, http.StatusOK, map[string]any{"rules": out, "count": len(out)})
}

// handlePostRules serves single-rule inserts, batch inserts and mixed
// insert/delete batches. Every multi-op form goes through the facade's
// Apply path, so a batch is one atomic publish with per-op error reporting.
func (a *api) handlePostRules(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	var req RulesRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Rules) > 0 && len(req.Ops) > 0 {
		writeError(w, http.StatusBadRequest, errors.New(`use either "rules" or "ops", not both`))
		return
	}

	// Normalise all three request forms into one op batch.
	var wireOps []WireRuleOp
	switch {
	case len(req.Ops) > 0:
		wireOps = req.Ops
	case len(req.Rules) > 0:
		wireOps = make([]WireRuleOp, len(req.Rules))
		for i, wr := range req.Rules {
			wireOps[i] = WireRuleOp{Op: "insert", Rule: wr}
		}
	case req.WireRule.Action != "":
		wireOps = []WireRuleOp{{Op: "insert", Rule: req.WireRule}}
	default:
		writeError(w, http.StatusBadRequest, errors.New(`request body must be a rule object, {"rules": [...]} or {"ops": [...]}`))
		return
	}

	resp := RulesResponse{}
	ops := make([]sdnpc.UpdateOp, 0, len(wireOps))
	// opIndex maps applied-op positions back to request indices so per-op
	// errors from Apply are reported against the caller's numbering even
	// when some ops already failed decoding.
	opIndex := make([]int, 0, len(wireOps))
	inserts := 0
	for i, wop := range wireOps {
		del := wop.Op == "delete"
		if !del && wop.Op != "insert" && wop.Op != "" {
			resp.Errors = append(resp.Errors, WireOpError{Index: i, Error: fmt.Sprintf("unknown op %q (want insert or delete)", wop.Op)})
			continue
		}
		rule, err := decodeRule(wop.Rule)
		if err != nil {
			resp.Errors = append(resp.Errors, WireOpError{Index: i, Error: err.Error()})
			continue
		}
		if !del {
			inserts++
		}
		ops = append(ops, sdnpc.UpdateOp{Delete: del, Rule: rule})
		opIndex = append(opIndex, i)
	}
	if len(ops) == 0 && len(resp.Errors) > 0 {
		// Nothing decodable: the request as a whole is malformed.
		writeJSON(w, http.StatusBadRequest, resp)
		return
	}

	t.rulesMu.Lock()
	if n := t.Classifier.RuleCount(); n+inserts > maxTenantRules {
		t.rulesMu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("tenant rule ceiling reached: %q holds %d rules, %d inserts would pass its %d", t.ID, n, inserts, maxTenantRules))
		return
	}
	_, errs, err := t.Classifier.Apply(ops)
	t.rulesMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("applying rule batch: %w", err))
		return
	}
	for i, opErr := range errs {
		if opErr != nil {
			resp.Errors = append(resp.Errors, WireOpError{Index: opIndex[i], Error: opErr.Error()})
			continue
		}
		if ops[i].Delete {
			resp.Deleted++
		} else {
			resp.Installed++
		}
	}
	resp.Rules = t.Classifier.RuleCount()
	a.log.Info("rules applied", "tenant", t.ID, "installed", resp.Installed, "deleted", resp.Deleted, "errors", len(resp.Errors))
	writeJSON(w, http.StatusOK, resp)
}

// handleDeleteRule removes one installed rule, identified by its field
// matches and priority in the request body.
func (a *api) handleDeleteRule(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	var wr WireRule
	if err := readJSON(w, r, &wr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rule, err := decodeRule(wr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := t.Classifier.Delete(rule); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, RulesResponse{Deleted: 1, Rules: t.Classifier.RuleCount()})
}

func (a *api) handlePutEngine(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	var req struct {
		Engine string `json:"engine"`
	}
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := t.Classifier.SelectEngine(req.Engine); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	a.log.Info("engine selected", "tenant", t.ID, "engine", t.Classifier.Engine())
	writeJSON(w, http.StatusOK, map[string]string{"engine": t.Classifier.Engine()})
}

// handleClassify classifies one header. With ?all=true the response also
// carries the full ordered action list under multi-action semantics: every
// matching rule's action in priority order, up to and including the first
// terminating match (actions[0] always agrees with the first-match verdict).
func (a *api) handleClassify(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	s := scratchPool.Get().(*classifyScratch)
	defer putScratch(s)
	var h sdnpc.Header
	var err error
	if s.body, err = readBody(w, r, s.body); err == nil {
		h, err = decodeSingle(s.body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if all, _ := strconv.ParseBool(r.URL.Query().Get("all")); all {
		refs, res := t.Classifier.LookupAll(h)
		wr := encodeResult(res)
		wr.Actions = encodeActionRefs(refs)
		writeJSON(w, http.StatusOK, wr)
		return
	}
	writeJSON(w, http.StatusOK, encodeResult(t.Classifier.Lookup(h)))
}

// handleClassifyBatch classifies a batch of headers against one snapshot,
// decoding and encoding with the pooled hand-written codec (codec.go).
func (a *api) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	s := scratchPool.Get().(*classifyScratch)
	defer putScratch(s)
	var err error
	if s.body, err = readBody(w, r, s.body); err == nil {
		s.headers, err = decodeBatch(s.body, s.headers)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.results = t.Classifier.LookupBatchInto(s.results, s.headers)
	s.out = appendBatchResponse(s.out[:0], s.results)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.out) // the status line is out; as in writeJSON
}

func (a *api) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, wireTenantStats(t))
}

// handleGlobalStats sums the served-traffic and memory accounting across
// every tenant — the process-wide view of the shared machine.
func (a *api) handleGlobalStats(w http.ResponseWriter, r *http.Request) {
	tenants := a.mgr.List()
	out := WireGlobalStats{Tenants: len(tenants), PerTenant: make([]WireTenantStats, len(tenants))}
	for i, t := range tenants {
		ts := wireTenantStats(t)
		out.PerTenant[i] = ts
		out.Lookups += ts.Lookups
		out.Matched += ts.Matched
		out.MemoryBits += ts.MemoryBits
		if ts.Cache != nil {
			out.CacheBits += ts.Cache.Bits
		}
	}
	writeJSON(w, http.StatusOK, out)
}
