package main

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: in
// slow phases lasting minutes every workload runs 1.5–2× slower, and
// CPU time grows with wall time, so the CPU itself is slower. No
// statistic over the program's own timings can tell such a phase from a
// slower program. The reference kernel is fixed work that calls no
// program code; timing it before every round measures the host's speed
// at the time, and the wall-time metrics are rescaled by it to the
// speed the host had when refNominal was taken.

// refNominal is the reference kernel's time, taken as the wall-time
// metrics take it (the median of the fastest quarter of a run's rounds),
// on the 2-CPU Intel Xeon machine the bounds were set on, in an idle
// phase.
const refNominal = 2200 * time.Microsecond

var refSink uint64

// referenceKernel times one run of fixed work shaped like the
// program's own. It builds and sorts a map of 5000 string keys, which
// allocates and hashes as the engine's row and answer handling does. It
// then runs 200 fan-outs of 4 goroutines joined by a WaitGroup, which
// wake one another across both CPUs as the crowd, clock and task
// manager goroutines do. Each part alone follows the host's slow phases
// less closely than the two together.
func referenceKernel() time.Duration {
	start := time.Now()
	m := make(map[string]int)
	keys := make([]string, 0, 5000)
	for i := range 5000 {
		k := "key-" + strconv.Itoa(i*7919%10007)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	refSink += uint64(len(m) + len(keys[0]))

	for range 200 {
		var wg sync.WaitGroup
		ch := make(chan uint64, 4)
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := uint64(g)
				for range 500 {
					x = x*6364136223846793005 + 1
				}
				ch <- x
			}()
		}
		wg.Wait()
		for range 4 {
			refSink += <-ch
		}
	}
	return time.Since(start)
}
