package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// RecordSchema identifies the persisted benchmark-record format. Bump it
// when a reader-visible field changes shape; readers reject records of any
// other schema rather than misinterpreting them.
const RecordSchema = "sdnpc-bench/v1"

// Record is one persisted benchmark artifact — the BENCH_<date>_<host>.json
// file the sweep driver writes at the repo root. It captures everything a
// later consumer (the advisor seeding engine rankings, the CI benchgate, a
// human reading the perf trajectory across PRs) needs to interpret the
// numbers: the workload configuration, the environment they were measured
// on, and one metrics map per (experiment, engine) cell.
type Record struct {
	Schema      string            `json:"schema"`
	Date        string            `json:"date"` // YYYY-MM-DD, UTC
	Host        string            `json:"host"`
	Environment RecordEnvironment `json:"environment"`
	Config      RecordConfig      `json:"config"`
	Results     []RecordResult    `json:"results"`
}

// RecordEnvironment pins the machine the record was measured on.
type RecordEnvironment struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// RecordConfig is the workload the sweeps ran against.
type RecordConfig struct {
	// Class and Size name the ClassBench filter set ("acl"/"fw"/"ipc",
	// "1k"/"5k"/"10k"); Rules is the generated rule count.
	Class string `json:"class"`
	Size  string `json:"size"`
	Rules int    `json:"rules"`
	// Packets is the replayed trace length.
	Packets int `json:"packets"`
}

// RecordResult is one measured cell: an engine evaluated under one
// experiment, with every metric in a flat name → value map so the schema
// never has to change when a sweep grows a column.
type RecordResult struct {
	// Experiment is "engines", "throughput" or "updates".
	Experiment string `json:"experiment"`
	Engine     string `json:"engine"`
	// Tier is "field" or "packet" for engine rows, the update mode for
	// update rows, empty elsewhere.
	Tier    string             `json:"tier,omitempty"`
	Rules   int                `json:"rules"`
	Metrics map[string]float64 `json:"metrics"`
}

// NewRecord builds an empty record stamped with the current date, host and
// environment.
func NewRecord(cfg RecordConfig) *Record {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	return &Record{
		Schema: RecordSchema,
		Date:   time.Now().UTC().Format("2006-01-02"),
		Host:   host,
		Environment: RecordEnvironment{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
		Config: cfg,
	}
}

// AddEngineRows folds an engine sweep into the record.
func (r *Record) AddEngineRows(rows []EngineRow) {
	for _, row := range rows {
		r.Results = append(r.Results, RecordResult{
			Experiment: "engines",
			Engine:     row.Engine,
			Tier:       row.Tier,
			Rules:      r.Config.Rules,
			Metrics: map[string]float64{
				"accesses_per_packet": row.AvgFieldAccesses,
				"latency_cycles":      row.AvgLatencyCycles,
				"mlookups_per_sec":    row.LookupsPerSecMega,
				"gbps_40b":            row.ThroughputGbps40,
				"engine_memory_kbit":  row.EngineMemoryKbit,
				"provisioned_kbit":    row.ProvisionedKbit,
				"rule_capacity":       float64(row.RuleCapacity),
				"mismatches":          float64(row.VerdictMismatches),
				"packets":             float64(row.PacketsReplayed),
			},
		})
	}
}

// AddThroughputRows folds a throughput sweep into the record.
func (r *Record) AddThroughputRows(rows []ThroughputRow) {
	for _, row := range rows {
		res := RecordResult{
			Experiment: "throughput",
			Engine:     row.Engine,
			Rules:      r.Config.Rules,
			Metrics: map[string]float64{
				"workers":         float64(row.Workers),
				"batch":           float64(row.BatchSize),
				"packets_per_sec": row.PacketsPerSec,
				"p50_ns":          float64(row.P50PerPacket.Nanoseconds()),
				"p99_ns":          float64(row.P99PerPacket.Nanoseconds()),
				"speedup_vs_1":    row.SpeedupVs1,
			},
		}
		if row.Cached {
			res.Metrics["cache_hit_rate"] = row.CacheHitRate
		}
		r.Results = append(r.Results, res)
	}
}

// AddUpdateRows folds an update sweep into the record.
func (r *Record) AddUpdateRows(rows []UpdateSweepRow) {
	for _, row := range rows {
		r.Results = append(r.Results, RecordResult{
			Experiment: "updates",
			Engine:     row.Engine,
			Tier:       row.Mode,
			Rules:      r.Config.Rules,
			Metrics: map[string]float64{
				"ops":             float64(row.Ops),
				"update_p50_ns":   float64(row.UpdateP50.Nanoseconds()),
				"update_p99_ns":   float64(row.UpdateP99.Nanoseconds()),
				"updates_per_sec": row.UpdatesPerSec,
				"lookups_per_sec": row.LookupsPerSec,
				"deltas_applied":  float64(row.DeltasApplied),
				"rebuilds":        float64(row.Rebuilds),
			},
		})
	}
}

// Validate checks the record against the schema contract the readers rely
// on.
func (r *Record) Validate() error {
	if r.Schema != RecordSchema {
		return fmt.Errorf("bench: record schema %q, want %q", r.Schema, RecordSchema)
	}
	if _, err := time.Parse("2006-01-02", r.Date); err != nil {
		return fmt.Errorf("bench: record date %q is not YYYY-MM-DD: %w", r.Date, err)
	}
	if r.Host == "" {
		return fmt.Errorf("bench: record has no host")
	}
	if r.Environment.GoVersion == "" || r.Environment.NumCPU < 1 {
		return fmt.Errorf("bench: record environment incomplete: %+v", r.Environment)
	}
	if len(r.Results) == 0 {
		return fmt.Errorf("bench: record holds no results")
	}
	for i, res := range r.Results {
		if res.Experiment == "" || res.Engine == "" {
			return fmt.Errorf("bench: result %d missing experiment or engine: %+v", i, res)
		}
		if len(res.Metrics) == 0 {
			return fmt.Errorf("bench: result %d (%s/%s) has no metrics", i, res.Experiment, res.Engine)
		}
	}
	return nil
}

// FileName returns the canonical artifact name, BENCH_<date>_<host>.json.
// The date-first layout makes lexical order chronological, which is what
// LatestRecord sorts by.
func (r *Record) FileName() string {
	host := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
			return c
		default:
			return '-'
		}
	}, r.Host)
	return fmt.Sprintf("BENCH_%s_%s.json", r.Date, host)
}

// Write validates the record and persists it under dir with its canonical
// file name, returning the written path.
func (r *Record) Write(dir string) (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: encoding record: %w", err)
	}
	path := filepath.Join(dir, r.FileName())
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: writing record: %w", err)
	}
	return path, nil
}

// ReadRecord loads and validates one persisted record.
func ReadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading record: %w", err)
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: decoding record %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// LatestRecord finds the newest BENCH_*.json under dir (lexically last,
// which the date-first file name makes chronological) and loads it. A
// directory holding no records returns os.ErrNotExist.
func LatestRecord(dir string) (*Record, string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, "", fmt.Errorf("bench: globbing records: %w", err)
	}
	if len(paths) == 0 {
		return nil, "", fmt.Errorf("bench: no BENCH_*.json under %s: %w", dir, os.ErrNotExist)
	}
	sort.Strings(paths)
	path := paths[len(paths)-1]
	r, err := ReadRecord(path)
	if err != nil {
		return nil, "", err
	}
	return r, path, nil
}

// LookupNs returns the persisted single-worker lookup cost of the named
// engine in nanoseconds per packet, derived from the engine-sweep cell. This
// is the record signal the advisor falls back on for a candidate whose
// shadow bench could not run.
func (r *Record) LookupNs(engine string) (float64, bool) {
	for _, res := range r.Results {
		if res.Experiment != "engines" || res.Engine != engine {
			continue
		}
		if m := res.Metrics["mlookups_per_sec"]; m > 0 {
			return 1e3 / m, true
		}
	}
	return 0, false
}
