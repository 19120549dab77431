package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperiment: -only with a name that is not in the table must
// say so, list the names that are, and exit 2 rather than print nothing
// and exit 0.
func TestUnknownExperiment(t *testing.T) {
	var stderr bytes.Buffer
	if got := run([]string{"-only", "nosuch"}, &stderr); got != 2 {
		t.Fatalf("run(-only nosuch) = %d, want 2", got)
	}
	for _, e := range experiments {
		if !strings.Contains(stderr.String(), "  "+e.name+" ") {
			t.Fatalf("run(-only nosuch) printed %q, want it to list %s", stderr.String(), e.name)
		}
	}
}

// TestEveryListedExperimentIsAccepted: each name the usage text offers
// selects exactly one experiment, and the cheapest one (E9, no workload)
// runs to exit 0 through the same path.
func TestEveryListedExperimentIsAccepted(t *testing.T) {
	for _, e := range experiments {
		sel := selectExperiments(e.name)
		if len(sel) != 1 || sel[0].name != e.name {
			t.Fatalf("selectExperiments(%q) = %v, want that one experiment", e.name, sel)
		}
	}
	if n := len(selectExperiments("")); n != len(experiments) {
		t.Fatalf("selectExperiments(\"\") picked %d of %d", n, len(experiments))
	}
	var stderr bytes.Buffer
	if got := run([]string{"-only", "e9"}, &stderr); got != 0 {
		t.Fatalf("run(-only e9) = %d, want 0; stderr %q", got, stderr.String())
	}
}
