package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded interval at a layer boundary. The benchmark records
// spans from outside, around its own calls into a layer's exported functions;
// Parent is the span that caused this one (0 = none) and Req groups the spans
// of one batch, request or update op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Req     int    `json:"req"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span now and returns its id.
func (r *recorder) begin(name string, parent, req int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartNs: int64(time.Since(r.origin))})
	return id
}

// end closes the span now.
func (r *recorder) end(id int) { r.spans[id-1].EndNs = int64(time.Since(r.origin)) }

// duration returns the length of a closed span.
func (r *recorder) duration(id int) time.Duration {
	return time.Duration(r.spans[id-1].EndNs - r.spans[id-1].StartNs)
}

// add records an already-measured interval.
func (r *recorder) add(name string, parent, req int, start time.Time, d time.Duration) {
	s := int64(start.Sub(r.origin))
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, StartNs: s, EndNs: s + int64(d)})
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	// SelfNs is total time minus the part of each span's interval that its
	// child spans cover (overlapping children are not counted twice).
	SelfNs int64 `json:"self_ns"`
}

// layerTable folds spans into per-name totals and self times.
func layerTable(spans []span) []layerRow {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
		}
		total := s.EndNs - s.StartNs
		row.Count++
		row.TotalNs += total
		row.SelfNs += total - covered(s, children[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var sum int64
	reach := parent.StartNs
	for _, k := range kids {
		start, end := max(k.StartNs, reach), min(k.EndNs, parent.EndNs)
		if end > start {
			sum += end - start
			reach = end
		}
	}
	return sum
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Layers   []layerRow         `json:"layers"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
