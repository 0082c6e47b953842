package core

import (
	"errors"
	"testing"

	"sdnpc/internal/fivetuple"
)

func batchRule(t *testing.T, priority int, src string, dstPort uint16) fivetuple.Rule {
	t.Helper()
	srcPrefix, err := fivetuple.ParsePrefix(src)
	if err != nil {
		t.Fatalf("ParsePrefix(%s): %v", src, err)
	}
	return fivetuple.Rule{
		Priority:  priority,
		SrcPrefix: srcPrefix,
		DstPrefix: fivetuple.Prefix{},
		SrcPort:   fivetuple.WildcardPortRange(),
		DstPort:   fivetuple.ExactPort(dstPort),
		Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
		Action:    fivetuple.ActionForward,
		ActionArg: uint32(priority),
	}
}

// TestApplyUpdatesBatch exercises the amortised update path: a mixed
// insert/delete sequence lands as one snapshot swap, failed ops are skipped
// with their error recorded, and the surviving ops still apply.
func TestApplyUpdatesBatch(t *testing.T) {
	c := MustNew(DefaultConfig())
	r0 := batchRule(t, 0, "10.0.0.0/8", 80)
	r1 := batchRule(t, 1, "10.1.0.0/16", 443)
	r2 := batchRule(t, 2, "10.2.0.0/16", 8080)
	notInstalled := batchRule(t, 7, "172.16.0.0/12", 22)

	reports, errs, err := c.ApplyUpdates([]UpdateOp{
		{Rule: r0},
		{Rule: r1},
		{Delete: true, Rule: notInstalled}, // fails: never installed
		{Rule: r2},
		{Delete: true, Rule: r1}, // deletes a rule inserted earlier in the same batch
	})
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if len(reports) != 5 || len(errs) != 5 {
		t.Fatalf("got %d reports / %d errs, want 5 / 5", len(reports), len(errs))
	}
	for i, wantErr := range []bool{false, false, true, false, false} {
		if (errs[i] != nil) != wantErr {
			t.Errorf("op %d error = %v, want error=%v", i, errs[i], wantErr)
		}
	}
	if !errors.Is(errs[2], ErrRuleNotInstalled) {
		t.Errorf("op 2 error = %v, want ErrRuleNotInstalled", errs[2])
	}
	if got := c.RuleCount(); got != 2 {
		t.Errorf("RuleCount = %d, want 2 (r0 and r2)", got)
	}

	header := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.2.3.4"), DstIP: fivetuple.MustParseIPv4("1.2.3.4"),
		SrcPort: 1000, DstPort: 8080, Protocol: fivetuple.ProtoTCP,
	}
	if res := c.Lookup(header); !res.Matched || res.Priority != 2 {
		t.Errorf("lookup after batch = %+v, want the priority-2 rule", res)
	}
	stats := c.Report().Stats
	if stats.Inserts != 3 || stats.Deletes != 1 {
		t.Errorf("stats = %d inserts / %d deletes, want 3 / 1", stats.Inserts, stats.Deletes)
	}

	// An empty batch is a no-op.
	if reports, errs, err := c.ApplyUpdates(nil); err != nil || reports != nil || errs != nil {
		t.Errorf("empty batch = (%v, %v, %v), want all nil", reports, errs, err)
	}
}

// TestBatchMatchesIndividualUpdates pins the equivalence that the wire
// API's rule batches rely on: a batch must leave the classifier in exactly
// the state a per-op sequence of InsertRule/DeleteRule calls would.
func TestBatchMatchesIndividualUpdates(t *testing.T) {
	rules := []fivetuple.Rule{
		batchRule(t, 0, "10.0.0.0/8", 80),
		batchRule(t, 1, "10.1.0.0/16", 443),
		batchRule(t, 2, "192.168.0.0/16", 53),
	}

	batched := MustNew(DefaultConfig())
	ops := make([]UpdateOp, 0, len(rules)+1)
	for _, r := range rules {
		ops = append(ops, UpdateOp{Rule: r})
	}
	ops = append(ops, UpdateOp{Delete: true, Rule: rules[1]})
	if _, errs, err := batched.ApplyUpdates(ops); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	} else {
		for i, e := range errs {
			if e != nil {
				t.Fatalf("op %d: %v", i, e)
			}
		}
	}

	individual := MustNew(DefaultConfig())
	for _, r := range rules {
		if _, err := individual.InsertRule(r); err != nil {
			t.Fatalf("InsertRule: %v", err)
		}
	}
	if _, err := individual.DeleteRule(rules[1]); err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}

	if b, i := batched.RuleCount(), individual.RuleCount(); b != i {
		t.Fatalf("rule counts diverge: batched %d, individual %d", b, i)
	}
	headers := []fivetuple.Header{
		{SrcIP: fivetuple.MustParseIPv4("10.9.9.9"), DstIP: fivetuple.MustParseIPv4("8.8.8.8"), SrcPort: 1, DstPort: 80, Protocol: fivetuple.ProtoTCP},
		{SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstIP: fivetuple.MustParseIPv4("8.8.8.8"), SrcPort: 1, DstPort: 443, Protocol: fivetuple.ProtoTCP},
		{SrcIP: fivetuple.MustParseIPv4("192.168.1.1"), DstIP: fivetuple.MustParseIPv4("8.8.8.8"), SrcPort: 1, DstPort: 53, Protocol: fivetuple.ProtoTCP},
	}
	for _, h := range headers {
		got, want := batched.Lookup(h), individual.Lookup(h)
		if got.Matched != want.Matched || got.Priority != want.Priority || got.Action != want.Action {
			t.Errorf("lookup %v diverges: batched %+v, individual %+v", h, got, want)
		}
	}
}
