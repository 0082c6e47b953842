package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTenantRuleCeiling trips the tenant ceiling: a batch whose inserts
// would take a tenant past maxTenantRules is a 409 that installs nothing,
// a batch that reaches it exactly is served, and once the tenant is full
// only a delete makes room. The tenant serves linear, which has no fixed
// capacity of its own, so the ceiling is the only bound.
func TestTenantRuleCeiling(t *testing.T) {
	h := New(slog.New(slog.NewTextHandler(io.Discard, nil))).Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	want := func(rec *httptest.ResponseRecorder, status int, step string) {
		t.Helper()
		if rec.Code != status {
			t.Fatalf("%s: status = %d, want %d (body %.200q)", step, rec.Code, status, rec.Body.String())
		}
	}
	// batch is a {"rules": [...]} body of n distinct drop rules from
	// priority first on.
	batch := func(first, n int) string {
		var b strings.Builder
		b.WriteString(`{"rules":[`)
		for i := range n {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"priority":%d,"action":"drop"}`, first+i)
		}
		b.WriteString(`]}`)
		return b.String()
	}
	const rules = "/v1/tenants/big/rules"

	want(do("POST", "/v1/tenants", `{"id":"big","engine":"linear"}`), http.StatusCreated, "create")
	rec := do("POST", rules, batch(0, maxTenantRules+1))
	want(rec, http.StatusConflict, "a batch past the ceiling")
	if !strings.Contains(rec.Body.String(), "rule ceiling") {
		t.Errorf("409 body %q does not name the ceiling", rec.Body.String())
	}
	if rec := do("GET", "/v1/tenants/big", ""); !strings.Contains(rec.Body.String(), `"rules":0,`) {
		t.Fatalf("the refused batch installed rules: %s", rec.Body.String())
	}

	want(do("POST", rules, batch(0, maxTenantRules)), http.StatusOK, "a batch to the ceiling")
	want(do("POST", rules, batch(maxTenantRules, 1)), http.StatusConflict, "one insert past a full tenant")
	// Deletes in a batch are not counted against its inserts.
	mixed := fmt.Sprintf(`{"ops":[{"op":"delete","rule":{"priority":0,"action":"drop"}},{"op":"insert","rule":{"priority":%d,"action":"drop"}}]}`, maxTenantRules)
	want(do("POST", rules, mixed), http.StatusConflict, "a replacing batch on a full tenant")
	want(do("DELETE", rules, `{"priority":0,"action":"drop"}`), http.StatusOK, "delete")
	want(do("POST", rules, batch(maxTenantRules, 1)), http.StatusOK, "an insert after the delete")
	if rec := do("GET", "/v1/tenants/big", ""); !strings.Contains(rec.Body.String(), fmt.Sprintf(`"rules":%d,"rule_capacity":0,`, maxTenantRules)) {
		t.Errorf("full tenant = %s, want %d rules and rule_capacity 0", rec.Body.String(), maxTenantRules)
	}

	// Concurrent batches are checked and applied one at a time: with room
	// for two of eight, exactly two are served and the tenant ends full.
	want(do("POST", "/v1/tenants", `{"id":"race","engine":"linear"}`), http.StatusCreated, "create race")
	want(do("POST", "/v1/tenants/race/rules", batch(0, maxTenantRules-10)), http.StatusOK, "fill race")
	var wg sync.WaitGroup
	var served atomic.Int32
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch rec := do("POST", "/v1/tenants/race/rules", batch(maxTenantRules+5*g, 5)); rec.Code {
			case http.StatusOK:
				served.Add(1)
			case http.StatusConflict:
			default:
				t.Errorf("concurrent batch %d: status %d (body %q)", g, rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
	if rec := do("GET", "/v1/tenants/race", ""); served.Load() != 2 || !strings.Contains(rec.Body.String(), fmt.Sprintf(`"rules":%d,`, maxTenantRules)) {
		t.Errorf("%d of 8 concurrent batches served, tenant %s; want 2 and %d rules", served.Load(), rec.Body.String(), maxTenantRules)
	}
}
