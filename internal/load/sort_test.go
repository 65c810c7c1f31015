package load

import "testing"

// sortCfg is the acceptance shape CI runs (smaller here for speed).
func sortCfg() Config {
	return Config{Workload: WorkloadSort, Tuples: 80, Workers: 200}
}

// TestSortWorkloadEconomics asserts the workload's contracts (Check) on
// the seed-pinned harness: LIMIT-k pays measurably fewer comparison
// HITs than full ordering, hybrid pays fewer HITs than compare-only at
// an identical final-order fingerprint, and the tournament's top k
// matches the full ordering's first k.
func TestSortWorkloadEconomics(t *testing.T) {
	rep, err := Run(sortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SortCompareHITs == 0 || rep.SortRateHITs == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if err := Check(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
}

// TestSortTopKClampedBelowGroupSize: a top-k at or above the
// comparison group size cannot engage the tournament, so oversized
// requests clamp to groupSize-1 instead of degenerating to full
// ordering (which would also fail the topk<compare acceptance check).
func TestSortTopKClampedBelowGroupSize(t *testing.T) {
	cfg := sortCfg()
	cfg.TopK = 50
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.TopK != 4 { // the sort tasks pin GroupSize 5
		t.Fatalf("TopK = %d, want clamp to group size − 1", rep.Config.TopK)
	}
	if rep.SortTopKHITs >= rep.SortCompareHITs {
		t.Fatalf("clamped top-k paid %d HITs, compare paid %d", rep.SortTopKHITs, rep.SortCompareHITs)
	}
}
