package main

import (
	"fmt"
	"math/rand"

	"sdnpc"
	"sdnpc/internal/core"
)

// batchSize is the number of headers per lookup call (and per classify-batch
// request) on every workload.
const batchSize = 64

// The update sequence is a cycle: churnDepth seed-chosen rules are deleted
// first, then every step re-inserts the rule deleted longest ago and deletes
// the next victim, so after churnCycle ops the same rules are out again and
// the sequence repeats. At most churnDepth rules (< 1 %) are ever missing. A
// cycle is one rebuild period of the default update policy (core's constant,
// not a copy of its value), so the amortised rebuild falls on the same op of
// every cycle, and it is short enough that the slowest workload (4 ms an op)
// still repeats it some forty times in a run.
const (
	churnDepth = 8
	churnCycle = core.DefaultRebuildAfterDeltas
)

// workload is one benchmark scenario: a classifier configuration plus the
// shape of the traffic and churn driven against it. The filter set is the
// repository's standard ClassBench-calibrated set (fixed generator seed, the
// paper's Table II/III statistics); the --seed argument drives the header
// trace and the update sequence only, so runs with different seeds do the
// same kind of work on the same tables.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same text).
	why string

	engine        string // "" = the paper's default field tier (mbt, exact cross-product)
	cacheShards   int
	cacheCapacity int
	ruleSize      string // acl set size: "1k" or "5k"

	headers int     // trace length
	zipf    float64 // > 1: Zipf-ranked replay of `flows` flows; otherwise unique flows
	flows   int

	// groupBatches is how many consecutive lookup batches share one reading
	// of the CPU clock (two system calls): about a millisecond of work.
	groupBatches int
	// mixed puts one update in front of every group of lookup batches, in a
	// single loop (zipf_churn); otherwise a unit of lookups and a unit of
	// updates alternate.
	mixed bool
	// wire drives the classifier through the HTTP handler in-process instead
	// of the Go API.
	wire bool
	// ladderHeaders bounds the per-layer ladder's fixed trace prefix so one
	// pass of the workload's slowest rung stays near a quarter of a second
	// and every rung gets several passes.
	ladderHeaders int
}

var workloads = []workload{
	{
		name:     "field_exact",
		why:      "paper default field tier (mbt, exact cross-product), acl-1k, unique flows, no cache: core label combination and Rule Filter dominate; packet engines and cache bypassed",
		ruleSize: "1k", headers: 16384, groupBatches: 1, ladderHeaders: 4096,
	},
	{
		name:   "packet_uniform",
		why:    "hypercuts packet tier, acl-5k, 262144 unique flows, no cache: algo/engine/arena traversal plus fixed per-lookup core overhead; combination and cache bypassed; delta-splice updates",
		engine: "hypercuts", ruleSize: "5k", headers: 262144, groupBatches: 64, ladderHeaders: 262144,
	},
	{
		name:   "zipf_churn",
		why:    "dcfl plus 4-shard 16384-entry microflow cache, acl-1k, Zipf(1.1) over 16384 flows, one update per 256 lookup batches: cache hit path for reads, generation invalidation on every publish",
		engine: "dcfl", cacheShards: 4, cacheCapacity: 16384, ruleSize: "1k",
		headers: 262144, zipf: 1.1, flows: 16384, groupBatches: 256, mixed: true, ladderHeaders: 65536,
	},
	{
		name:   "wire_batch",
		why:    "one hypercuts acl-1k tenant behind the HTTP handler, driven in-process with 64-header classify-batch bodies: JSON decode/encode and handler dominate, engine nearly invisible; no socket",
		engine: "hypercuts", ruleSize: "1k", headers: 65536, groupBatches: 8, wire: true, ladderHeaders: 65536,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options returns the facade options that configure a classifier for this
// workload.
func (w workload) options() []sdnpc.Option {
	var opts []sdnpc.Option
	if w.engine != "" {
		opts = append(opts, sdnpc.WithEngine(w.engine))
	}
	if w.cacheCapacity > 0 {
		opts = append(opts, sdnpc.WithCache(w.cacheShards, w.cacheCapacity))
	}
	return opts
}

// inputs is everything the load generator prepares before measurement.
type inputs struct {
	rules   *sdnpc.RuleSet
	trace   []sdnpc.Header
	batches [][]sdnpc.Header // trace cut into batchSize slices
	sample  []sdnpc.Header   // oracle-checked subset of the trace
}

// verifySample is the number of headers re-classified against the oracle
// before the lookup phase and after the update phase.
const verifySample = 4096

func (w workload) generate(seed int64) (inputs, error) {
	rs, err := sdnpc.GenerateRuleSet("acl", w.ruleSize)
	if err != nil {
		return inputs{}, err
	}
	in := inputs{rules: rs}
	if w.zipf > 1 {
		in.trace = sdnpc.GenerateTrace(rs, sdnpc.TraceOptions{
			Packets: w.headers, Seed: seed, ZipfSkew: w.zipf, Flows: w.flows,
		})
	} else {
		in.trace = uniqueFlows(rs, w.headers, seed)
	}
	for i := 0; i+batchSize <= len(in.trace); i += batchSize {
		in.batches = append(in.batches, in.trace[i:i+batchSize])
	}
	// Spread the verification sample over the whole trace.
	step := len(in.trace) / verifySample
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(in.trace) && len(in.sample) < verifySample; i += step {
		in.sample = append(in.sample, in.trace[i])
	}
	return in, nil
}

// uniqueFlows draws n independent headers with no five-tuple repeated, so a
// flow cache in front of the classifier could never hit.
func uniqueFlows(rs *sdnpc.RuleSet, n int, seed int64) []sdnpc.Header {
	seen := make(map[sdnpc.Header]struct{}, n)
	out := make([]sdnpc.Header, 0, n)
	for round := int64(0); len(out) < n; round++ {
		// Each round re-seeds the generator so a short first draw is topped
		// up with fresh headers; the whole sequence is a function of seed.
		draw := sdnpc.GenerateTrace(rs, sdnpc.TraceOptions{Packets: n, Seed: seed + round*1_000_003})
		for _, h := range draw {
			if _, dup := seen[h]; dup {
				continue
			}
			seen[h] = struct{}{}
			out = append(out, h)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// churn produces the update sequence: a pure function of the seed and the
// base rule set. It deletes and re-inserts base rules only (never the trailing
// default rule), so every op is valid, nothing is refused for capacity, and
// the oracle is the base set filtered by liveness.
type churn struct {
	victims []sdnpc.Rule // churnCycle/2 distinct rules, in the order they are deleted
	n       int          // cycle ops produced so far
}

func newChurn(rs *sdnpc.RuleSet, seed int64) *churn {
	rules := rs.Rules()
	body := rules[:len(rules)-1]
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	c := &churn{victims: make([]sdnpc.Rule, churnCycle/2)}
	for i, p := range rng.Perm(len(body))[:len(c.victims)] {
		c.victims[i] = body[p]
	}
	return c
}

// prime returns the churnDepth deletes that come before the first cycle.
func (c *churn) prime() []sdnpc.UpdateOp {
	ops := make([]sdnpc.UpdateOp, churnDepth)
	for i := range ops {
		ops[i] = sdnpc.UpdateOp{Delete: true, Rule: c.victims[i]}
	}
	return ops
}

// next returns the next op of the cycle and its position in it.
func (c *churn) next() (op sdnpc.UpdateOp, pos int) {
	pos = c.n % churnCycle
	c.n++
	step := pos / 2
	if pos%2 == 0 {
		return sdnpc.UpdateOp{Rule: c.victims[step]}, pos
	}
	return sdnpc.UpdateOp{Delete: true, Rule: c.victims[(step+churnDepth)%len(c.victims)]}, pos
}
