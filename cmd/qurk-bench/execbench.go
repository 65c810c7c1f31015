package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/exec"
)

// execBench is the BENCH_exec.json schema: one entry per executor
// pipeline from exec.BenchSuite, measured live and compared against the
// baseline committed in the suite (see exec.BenchCase).
type execBench struct {
	Pipelines []execPipeline `json:"pipelines"`
}

type execPipeline struct {
	Name     string `json:"name"`
	Rows     int    `json:"rows"`
	NsOp     int64  `json:"ns_op"`
	BytesOp  int64  `json:"bytes_op"`
	AllocsOp int64  `json:"allocs_op"`
	// PeakTuplesResident is the high-water mark of tuples buffered in
	// queues and operator barriers during one execution — the executor's
	// steady-state memory footprint in tuples.
	PeakTuplesResident int64 `json:"peak_tuples_resident"`
	// Baseline* are the previous executor's committed measurements.
	BaselineNsOp     float64 `json:"baseline_ns_op"`
	BaselineAllocsOp int64   `json:"baseline_allocs_op"`
	Speedup          float64 `json:"speedup"`
	AllocReduction   float64 `json:"alloc_reduction"`
}

// runExecBench benchmarks every executor pipeline via testing.Benchmark
// and writes BENCH_exec.json next to the other BENCH artifacts.
func runExecBench() error {
	var out execBench
	for _, c := range exec.BenchSuite() {
		node, err := c.Plan()
		if err != nil {
			return fmt.Errorf("EXEC %s: %v", c.Name, err)
		}
		// One measured run for the footprint gauge.
		q, err := c.Run(node)
		if err != nil {
			return fmt.Errorf("EXEC %s: %v", c.Name, err)
		}
		peak := q.PeakTuplesResident()

		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(node); err != nil {
					b.Fatal(err)
				}
			}
		})
		p := execPipeline{
			Name:               c.Name,
			Rows:               c.WantRows,
			NsOp:               r.NsPerOp(),
			BytesOp:            r.AllocedBytesPerOp(),
			AllocsOp:           r.AllocsPerOp(),
			PeakTuplesResident: peak,
			BaselineNsOp:       c.BaselineNsOp,
			BaselineAllocsOp:   c.BaselineAllocs,
		}
		if p.NsOp > 0 {
			p.Speedup = p.BaselineNsOp / float64(p.NsOp)
		}
		if p.BaselineAllocsOp > 0 {
			p.AllocReduction = 1 - float64(p.AllocsOp)/float64(p.BaselineAllocsOp)
		}
		out.Pipelines = append(out.Pipelines, p)
		fmt.Printf("EXEC %s: %d ns/op, %d B/op, %d allocs/op, peak %d tuples resident (%.2fx vs baseline, %.0f%% fewer allocs)\n",
			p.Name, p.NsOp, p.BytesOp, p.AllocsOp, p.PeakTuplesResident, p.Speedup, 100*p.AllocReduction)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_exec.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_exec.json")
	return nil
}
