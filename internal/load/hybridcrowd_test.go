package load

import (
	"strings"
	"testing"
)

// TestHybridCrowdRoutingSavesMoney is the acceptance comparison inside
// one run (Check): the routed phase reproduces the sim-only phase's
// result set exactly, splits its HITs across both backends, and spends
// strictly less than the all-human baseline.
func TestHybridCrowdRoutingSavesMoney(t *testing.T) {
	rep, err := Run(Config{Workload: WorkloadHybridCrowd, Tuples: 200, Workers: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "hybridcrowd") {
		t.Fatal("report lacks the hybridcrowd line")
	}
}
