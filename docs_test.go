package sdnpc_test

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"sdnpc/internal/engine"
	"sdnpc/internal/server"
)

// TestEnginesDocCoversRegistry fails when a registered engine name is
// missing from docs/ENGINES.md — the check scripts/check_docs.sh runs in CI,
// keeping the docs honest as the registry grows. Names must appear in
// backticks so prose mentioning a word like "full" cannot satisfy the check
// by accident.
func TestEnginesDocCoversRegistry(t *testing.T) {
	doc, err := os.ReadFile("docs/ENGINES.md")
	if err != nil {
		t.Fatalf("reading docs/ENGINES.md: %v", err)
	}
	text := string(doc)
	for _, name := range engine.Names() {
		if !strings.Contains(text, fmt.Sprintf("`%s`", name)) {
			t.Errorf("registered engine %q is not documented in docs/ENGINES.md", name)
		}
	}
}

// TestReadmeCoversSelectableEngines requires the README's engine matrix to
// mention every engine a user can actually select.
func TestReadmeCoversSelectableEngines(t *testing.T) {
	doc, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	text := string(doc)
	for _, name := range engine.SelectableNames() {
		if !strings.Contains(text, fmt.Sprintf("`%s`", name)) {
			t.Errorf("selectable engine %q is not mentioned in README.md", name)
		}
	}
}

// TestArchitectureDocExists keeps the architecture doc set linked and
// present: docs/ARCHITECTURE.md must exist and name every layer of the
// system it claims to map.
func TestArchitectureDocExists(t *testing.T) {
	doc, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("reading docs/ARCHITECTURE.md: %v", err)
	}
	text := string(doc)
	for _, layer := range []string{
		"internal/engine", "internal/core", "internal/algo", "internal/hw",
		"internal/bench", "internal/cache", "internal/server",
		"snapshot", "clone-mutate-swap",
		"internal/cow", "0 allocs/op", "BenchmarkLookupUnderGC",
	} {
		if !strings.Contains(text, layer) {
			t.Errorf("docs/ARCHITECTURE.md does not mention %q", layer)
		}
	}
}

// TestDocsCoverUpdatePlane keeps the incremental update plane documented:
// ARCHITECTURE.md must describe the delta-apply vs rebuild decision and the
// Report().Updates surface, ENGINES.md must state the incremental contract and
// the fixed policy's constants, and the ENGINES.md incremental-support matrix must agree
// with the registry's Incremental flags engine by engine — so the docs
// cannot claim (or forget) delta support the code does not have.
func TestDocsCoverUpdatePlane(t *testing.T) {
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("reading docs/ARCHITECTURE.md: %v", err)
	}
	for _, want := range []string{
		"delta-apply", "DefaultRebuildAfterDeltas", "DefaultDegradationThreshold", "Report().Updates",
		"BenchmarkUpdateLatency", "e2e.update_p99_us", "core.publish_p99_us",
	} {
		if !strings.Contains(string(arch), want) {
			t.Errorf("docs/ARCHITECTURE.md does not mention %q", want)
		}
	}
	engines, err := os.ReadFile("docs/ENGINES.md")
	if err != nil {
		t.Fatalf("reading docs/ENGINES.md: %v", err)
	}
	text := string(engines)
	for _, want := range []string{
		"IncrementalPacketEngine", "UpdateCost", "DefaultRebuildAfterDeltas",
		"DefaultDegradationThreshold", "Incremental-support matrix", "copy-on-write",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("docs/ENGINES.md does not mention %q", want)
		}
	}
	// Matrix honesty: one row per packet engine whose second column opens
	// with yes/no matching whether its instances implement
	// IncrementalPacketEngine.
	incremental := engine.IncrementalPacketEngineNames()
	for _, name := range engine.PacketEngineNames() {
		rowPrefix := fmt.Sprintf("| `%s` |", name)
		found := false
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, rowPrefix) {
				continue
			}
			cells := strings.Split(line, "|")
			if len(cells) < 3 {
				continue
			}
			support := strings.TrimSpace(cells[2])
			if strings.HasPrefix(support, "yes") || strings.HasPrefix(support, "no") {
				found = true
				documented := strings.HasPrefix(support, "yes")
				if want := slices.Contains(incremental, name); documented != want {
					t.Errorf("docs/ENGINES.md incremental matrix says %q for %s, its type implements IncrementalPacketEngine: %v",
						support, name, want)
				}
				break
			}
		}
		if !found {
			t.Errorf("docs/ENGINES.md incremental-support matrix has no yes/no row for %q", name)
		}
	}
}

// TestServiceDocCoversRoutes keeps docs/SERVICE.md and the wire API in
// lockstep, both ways: every route the server registers must appear in the
// doc as a backticked `METHOD /path` pattern, and every such pattern the doc
// claims must be a registered route — so an endpoint cannot be added,
// renamed or removed without the reference following.
func TestServiceDocCoversRoutes(t *testing.T) {
	doc, err := os.ReadFile("docs/SERVICE.md")
	if err != nil {
		t.Fatalf("reading docs/SERVICE.md: %v", err)
	}
	text := string(doc)

	registered := make(map[string]bool)
	for _, route := range server.Routes() {
		registered[route] = true
		if !strings.Contains(text, fmt.Sprintf("`%s`", route)) {
			t.Errorf("registered route %q is not documented in docs/SERVICE.md", route)
		}
	}

	documented := regexp.MustCompile("`((?:GET|POST|PUT|DELETE|PATCH|HEAD) /[^`]*)`").FindAllStringSubmatch(text, -1)
	if len(documented) == 0 {
		t.Fatal("docs/SERVICE.md documents no `METHOD /path` routes")
	}
	for _, m := range documented {
		if !registered[m[1]] {
			t.Errorf("docs/SERVICE.md documents %q, which is not a registered route", m[1])
		}
	}
}

// TestDocsCoverDimensionModel keeps the generalized dimension model
// documented: the ENGINES.md dimension-support matrix must agree cell by
// cell with the registry's declared DimSet for every selectable engine (so
// the docs cannot claim or forget a dimension the code does not serve),
// ARCHITECTURE.md must describe the extended header layout and its serving
// consequences, and SERVICE.md must name the extension wire fields and the
// multi-action query parameter.
func TestDocsCoverDimensionModel(t *testing.T) {
	engines, err := os.ReadFile("docs/ENGINES.md")
	if err != nil {
		t.Fatalf("reading docs/ENGINES.md: %v", err)
	}
	text := string(engines)
	for _, want := range []string{
		"Dimension-support matrix", "MultiMatchPacketEngine", "LookupPacketAll",
		"ErrDimsUnsupported", "non-terminating",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("docs/ENGINES.md does not mention %q", want)
		}
	}
	// Matrix honesty: within the dimension-support matrix section, one row
	// per selectable engine whose second column is exactly the
	// DimSet.String() rendering of the registry declaration.
	section := text
	if i := strings.Index(section, "### Dimension-support matrix"); i >= 0 {
		section = section[i:]
		if j := strings.Index(section, "\n## "); j >= 0 {
			section = section[:j]
		}
	} else {
		t.Fatal("docs/ENGINES.md has no \"### Dimension-support matrix\" section")
	}
	for _, name := range engine.SelectableNames() {
		want := engine.Dims(name).String()
		rowPrefix := fmt.Sprintf("| `%s` |", name)
		found := false
		for _, line := range strings.Split(section, "\n") {
			if !strings.HasPrefix(line, rowPrefix) {
				continue
			}
			cells := strings.Split(line, "|")
			if len(cells) < 3 {
				continue
			}
			found = true
			if got := strings.TrimSpace(cells[2]); got != want {
				t.Errorf("docs/ENGINES.md dimension matrix says %q for %s, registry declares %q",
					got, name, want)
			}
			break
		}
		if !found {
			t.Errorf("docs/ENGINES.md dimension-support matrix has no row for %q", name)
		}
	}

	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("reading docs/ARCHITECTURE.md: %v", err)
	}
	for _, want := range []string{
		"SrcIP6", "DstIP6", "VLAN", "TCPFlags", "Family",
		"hashHeader", "TestHashHeaderCoversEveryField",
		"LookupAll", "LookupAllInto", "packetDims", "family-fallback",
	} {
		if !strings.Contains(string(arch), want) {
			t.Errorf("docs/ARCHITECTURE.md does not mention %q", want)
		}
	}

	service, err := os.ReadFile("docs/SERVICE.md")
	if err != nil {
		t.Fatalf("reading docs/SERVICE.md: %v", err)
	}
	for _, want := range []string{
		"src6", "dst6", "vlan", "tcp_flags", "non_terminating",
		"?all=true", "actions",
	} {
		if !strings.Contains(string(service), want) {
			t.Errorf("docs/SERVICE.md does not mention %q", want)
		}
	}
}

// TestDocsCoverCacheFlags keeps the microflow-cache surface documented: the
// README must name the wire fields, the facade option and the one command
// that measures whether the cache pays off, and ENGINES.md must explain
// generation-based invalidation — the piece of the serving contract a new
// engine author would otherwise trip over.
func TestDocsCoverCacheFlags(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	for _, want := range []string{"cache_capacity", "WithCache", "Report()", "benchmark/run.sh"} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md does not mention %q", want)
		}
	}
	engines, err := os.ReadFile("docs/ENGINES.md")
	if err != nil {
		t.Fatalf("reading docs/ENGINES.md: %v", err)
	}
	for _, want := range []string{"generation", "cache_capacity", "cache_shards", "internal/cache"} {
		if !strings.Contains(string(engines), want) {
			t.Errorf("docs/ENGINES.md does not mention %q", want)
		}
	}
}
