package load

import (
	"strings"
	"testing"
)

// TestMultiTenantSharingSavesHITs is the acceptance comparison: the
// same tenant fleet with sharing on posts strictly fewer HITs than
// with sharing off, at identical per-query result fingerprints.
func TestMultiTenantSharingSavesHITs(t *testing.T) {
	cfg := Config{Workload: WorkloadMultiTenant, Queries: 20, Tuples: 130, Workers: 50, Seed: 3}
	shared, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := cfg
	base.NoShare = true
	unshared, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if shared.HITs >= unshared.HITs {
		t.Fatalf("sharing saved nothing: %d HITs shared vs %d unshared", shared.HITs, unshared.HITs)
	}
	if shared.SharedHITs == 0 || shared.CoBatchedItems == 0 {
		t.Fatalf("no co-batching recorded: %+v", shared)
	}
	if unshared.SharedHITs != 0 {
		t.Fatalf("baseline run co-batched %d HITs", unshared.SharedHITs)
	}
	for i := range shared.PerQueryFNV {
		if shared.PerQueryFNV[i] != unshared.PerQueryFNV[i] {
			t.Fatalf("query %d result drifted under sharing: %016x vs %016x",
				i, shared.PerQueryFNV[i], unshared.PerQueryFNV[i])
		}
	}
	if shared.Spent >= unshared.Spent {
		t.Fatalf("sharing spent %v, baseline %v", shared.Spent, unshared.Spent)
	}
	if !strings.Contains(shared.String(), "multitenant") {
		t.Fatal("report lacks the multitenant line")
	}
}
