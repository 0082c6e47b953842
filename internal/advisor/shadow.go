package advisor

import (
	"fmt"
	"time"

	"sdnpc/internal/core"
	"sdnpc/internal/fivetuple"
)

// shadowResult is one candidate engine's measured cost on the trace.
type shadowResult struct {
	Engine string
	// NsPerLookup is the measured wall-clock cost per header.
	NsPerLookup float64
	// MemoryBits is the engine's used block memory holding the benched rule
	// set (Report().Memory.TotalUsedBits()).
	MemoryBits int
	// Lookups is how many headers the bench replayed before its slice of
	// the budget ran out.
	Lookups int
	// Err marks a candidate that could not be benched (build failure, rules
	// rejected); it is excluded from ranking.
	Err error
}

// shadowBatch is the replay batch size: large enough to amortise the batch
// call, small enough that a deadline check every batch keeps the budget
// honest.
const shadowBatch = 256

// shadowBench replays the header slice against a fresh classifier per
// candidate engine, dividing the CPU budget evenly. The shadow classifiers
// run cache-less: the bench measures the engine itself, not the serving path
// around it.
func shadowBench(rules []fivetuple.Rule, headers []fivetuple.Header, names []string, budget time.Duration) []shadowResult {
	if len(names) == 0 {
		return nil
	}
	slice := budget / time.Duration(len(names))
	results := make([]shadowResult, 0, len(names))
	for _, name := range names {
		results = append(results, benchOne(name, rules, headers, slice))
	}
	return results
}

// benchOne builds one shadow classifier, installs the rule slice as a
// single batch, and replays the headers until its budget slice expires
// (always completing at least one full pass, so short slices still yield a
// measurement).
func benchOne(name string, rules []fivetuple.Rule, headers []fivetuple.Header, slice time.Duration) shadowResult {
	res := shadowResult{Engine: name}
	cfg := core.DefaultConfig()
	cfg.SetEngine(name)
	c, err := core.New(cfg)
	if err != nil {
		res.Err = err
		return res
	}
	ops := make([]core.UpdateOp, len(rules))
	for i, r := range rules {
		ops[i] = core.UpdateOp{Rule: r}
	}
	_, errs, err := c.ApplyUpdates(ops)
	if err != nil {
		res.Err = fmt.Errorf("advisor: shadow %s: %w", name, err)
		return res
	}
	rejected := 0
	for _, e := range errs {
		if e != nil {
			rejected++
		}
	}
	if rejected > 0 {
		res.Err = fmt.Errorf("advisor: shadow %s rejected %d/%d rules", name, rejected, len(rules))
		return res
	}
	res.MemoryBits = c.Report().Memory.TotalUsedBits()

	dst := make([]core.Result, 0, shadowBatch)
	deadline := time.Now().Add(slice)
	start := time.Now()
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for off := 0; off < len(headers); off += shadowBatch {
			end := off + shadowBatch
			if end > len(headers) {
				end = len(headers)
			}
			dst = c.LookupBatchInto(dst, headers[off:end])
			res.Lookups += end - off
		}
	}
	elapsed := time.Since(start)
	if res.Lookups > 0 {
		res.NsPerLookup = float64(elapsed.Nanoseconds()) / float64(res.Lookups)
	}
	if res.NsPerLookup <= 0 {
		res.NsPerLookup = 1 // clock resolution floor; keeps ranking math finite
	}
	return res
}
