package load

import (
	"strings"
	"testing"
)

// TestInferenceSavesAssignments is the acceptance comparison inside one
// run (Check): the adaptive EM phase reproduces the majority baseline's
// result set exactly while buying strictly fewer assignments — with the
// perfect default crowd, exactly MinAssignments per HIT and no
// extensions.
func TestInferenceSavesAssignments(t *testing.T) {
	rep, err := Run(Config{Workload: WorkloadInference, Tuples: 200, Workers: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(rep); err != nil {
		t.Fatal(err)
	}
	// HIT counts may differ by a partial batch — completion timing at 2
	// vs 3 assignments packs the second-stage batches differently — but
	// never by much.
	if rep.HITs < rep.InferBaseHITs-2 || rep.HITs > rep.InferBaseHITs+2 {
		t.Fatalf("phases posted very different HIT counts: %d vs %d", rep.HITs, rep.InferBaseHITs)
	}
	// A perfect crowd clears the posterior target at the floor every
	// time: exactly 2 assignments per HIT, never a third.
	if rep.Assignments != 2*rep.HITs || rep.InferExtensions != 0 || rep.InferExtendFailures != 0 {
		t.Fatalf("perfect crowd should stop at the floor: %d assignments over %d HITs, %d extensions, %d failures",
			rep.Assignments, rep.HITs, rep.InferExtensions, rep.InferExtendFailures)
	}
	if rep.InferAdaptiveHITs != rep.HITs {
		t.Fatalf("adaptive HITs = %d of %d posted", rep.InferAdaptiveHITs, rep.HITs)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if !strings.Contains(rep.String(), "inference") {
		t.Fatal("report lacks the inference line")
	}
}
