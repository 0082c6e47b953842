package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestUnknownExperimentNamesTheValidOnes covers a typo and the two
// experiment names that were removed with the v1 bench record: all three
// must be refused with the full list of what is valid.
func TestUnknownExperimentNamesTheValidOnes(t *testing.T) {
	for _, name := range []string{"bogus", "sweep", "churn"} {
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
	for _, args := range [][]string{{"-record-dir", "x"}, {"-churn-ops", "1"}} {
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
