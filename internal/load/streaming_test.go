package load

import (
	"strings"
	"testing"
)

// TestStreamingFirstRowBeforeLastHIT is the acceptance demo: the Rows
// cursor delivers its first tuple while later HITs are still in flight.
func TestStreamingFirstRowBeforeLastHIT(t *testing.T) {
	rep, err := Run(Config{Workload: WorkloadStreaming, Tuples: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered < 2 { // Check's first-row assertion needs an earlier HIT to precede
		t.Fatalf("delivered %d rows", rep.Delivered)
	}
	if err := Check(rep); err != nil {
		t.Fatal(err)
	}
	if rep.HITsAfterCancel != 0 {
		t.Fatalf("HITs posted after quiesce: %d", rep.HITsAfterCancel)
	}
	if !strings.Contains(rep.String(), "streaming") {
		t.Fatal("report lacks the streaming line")
	}
}
