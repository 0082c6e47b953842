package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestExperimentsGolden pins the paper reproduction byte for byte: every
// experiment of "all" on the 1k workload prints exactly
// testdata/all-1k.golden. The output is deterministic (generated filter sets
// and traces are seeded, the throughput figures are the modelled pipeline),
// so any difference is a behaviour change, to be read and then regenerated.
func TestExperimentsGolden(t *testing.T) {
	const golden = "testdata/all-1k.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v", golden, err)
	}
	var out bytes.Buffer
	if err := run([]string{"-size", "1k"}, &out); err != nil {
		t.Fatalf("run -size 1k: %v", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	// Pad both sides with one empty line so a truncated output still has a
	// first differing line to print.
	gotLines := append(strings.Split(out.String(), "\n"), "")
	wantLines := append(strings.Split(string(want), "\n"), "")
	i := 0
	for i < len(gotLines)-1 && i < len(wantLines)-1 && gotLines[i] == wantLines[i] {
		i++
	}
	t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n"+
		"if the change is intended, regenerate with:\n"+
		"  go run ./cmd/experiments -size 1k > cmd/experiments/%s",
		golden, i+1, gotLines[i], wantLines[i], golden)
}

// TestUnknownExperimentNamesTheValidOnes covers a typo and the experiment
// names that were removed (sweep and churn with the v1 bench record,
// throughput and serve with the second measuring stack): all must be
// refused with the full list of what is valid.
func TestUnknownExperimentNamesTheValidOnes(t *testing.T) {
	for _, name := range []string{"bogus", "sweep", "churn", "throughput", "serve"} {
		err := run([]string{"-experiment", name}, io.Discard)
		if err == nil {
			t.Fatalf("-experiment %s succeeded, want an unknown-experiment error", name)
		}
		for _, valid := range experimentNames() {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("-experiment %s: error %q does not name the valid experiment %q", name, err, valid)
			}
		}
	}
}

func TestRemovedFlagsAreUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"-record-dir", "x"}, {"-churn-ops", "1"},
		{"-workers", "1"}, {"-batch", "64"}, {"-cache-shards", "4"}, {"-cache-capacity", "1024"}, {"-zipf", "1.1"},
		{"-serve-addr", "127.0.0.1:8080"}, {"-serve-tenants", "2"}, {"-serve-clients", "4"}, {"-serve-requests", "100"},
	} {
		err := run(append(args, "-experiment", "table2"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an unknown-flag error", args, err)
		}
	}
}

// TestWorkloadFreeExperimentsRun drives two experiments that need no
// generated filter set end to end through run.
func TestWorkloadFreeExperimentsRun(t *testing.T) {
	for name, want := range map[string]string{"table2": "Table II", "fig5": "Fig. 5"} {
		var out bytes.Buffer
		if err := run([]string{"-experiment", name}, &out); err != nil {
			t.Fatalf("-experiment %s: %v", name, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("-experiment %s printed no %q heading:\n%s", name, want, out.String())
		}
	}
}
