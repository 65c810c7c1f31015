package taskmgr

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// roundTripHITs is the size of one HIT round trip measurement: this
// many single-item filter HITs at roundTripAssignments each.
const (
	roundTripHITs        = 500
	roundTripAssignments = 3
)

// roundTripRig is a manager over the simulated crowd, pumped by
// Clock.Step on the caller's goroutine: the crowd round trip of every
// crowd query (post, claim, answer, collect, finalize, callback) with
// nothing else around it.
type roundTripRig struct {
	clock *mturk.Clock
	mgr   *Manager
	def   *qlang.TaskDef
	args  [][]relation.Value
	round int
}

func newRoundTripRig() *roundTripRig {
	clock := mturk.NewClock()
	pool := crowd.NewPool(crowd.Config{Seed: 1, AbandonRate: 1e-12}, catOracle)
	market := mturk.NewMarketplace(clock, pool)
	market.SetAutoDispose(true, nil)
	r := &roundTripRig{clock: clock, mgr: New(market, nil, nil, nil), def: filterDef()}
	r.mgr.SetPolicy(r.def.Name, Policy{Assignments: roundTripAssignments, BatchSize: 1, PriceCents: 1, Linger: time.Hour})
	return r
}

// run posts roundTripHITs fresh single-item HITs and pumps the clock
// until every answer is back.
func (r *roundTripRig) run(tb testing.TB) {
	r.round++
	outstanding := roundTripHITs
	done := func(out Outcome) {
		if out.Err != nil {
			tb.Fatal(out.Err)
		}
		outstanding--
	}
	for i := 0; i < roundTripHITs; i++ {
		img := relation.NewImage(fmt.Sprintf("cat-%d-%d.png", r.round, i))
		r.mgr.Submit(Request{Def: r.def, Args: []relation.Value{img}, Done: done})
	}
	for outstanding > 0 {
		if !r.clock.Step() {
			tb.Fatalf("clock drained with %d HITs outstanding", outstanding)
		}
	}
}

// BenchmarkHITRoundTrip measures the engine's cost per crowd round trip
// (post, three simulated assignments, collect, finalize, callback) on
// single-item filter HITs, in ns and allocations per HIT.
func BenchmarkHITRoundTrip(b *testing.B) {
	r := newRoundTripRig()
	r.run(b) // warm the manager's task state and the crowd
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.run(b)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	hits := float64(b.N * roundTripHITs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/hits, "ns/HIT")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/hits, "allocs/HIT")
}

// TestHITRoundTripAllocGate is the CI gate for BenchmarkHITRoundTrip:
// it fails when allocations per HIT round trip exceed 2× the committed
// baseline in testdata/roundtrip_baseline.json, the same rule as the
// executor's alloc gate. Allocation counts, unlike wall time, do not
// depend on the machine.
func TestHITRoundTripAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts; gate runs in the non-race CI step")
	}
	if testing.Short() {
		t.Skip("alloc gate needs steady-state measurements; skipped in -short")
	}
	raw, err := os.ReadFile("testdata/roundtrip_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		AllocsPerHIT float64 `json:"allocs_per_hit"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil || baseline.AllocsPerHIT <= 0 {
		t.Fatalf("bad baseline %s: %v", raw, err)
	}
	r := newRoundTripRig()
	r.run(t)
	got := testing.AllocsPerRun(3, func() { r.run(t) }) / roundTripHITs
	if limit := 2 * baseline.AllocsPerHIT; got > limit {
		t.Errorf("allocs/HIT = %.1f, over the 2x gate (baseline %.1f, limit %.1f); if the growth is intentional, refresh testdata/roundtrip_baseline.json",
			got, baseline.AllocsPerHIT, limit)
	}
	t.Logf("%.1f allocs/HIT (baseline %.1f)", got, baseline.AllocsPerHIT)
}
