package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/load"
)

// obsBench is the BENCH_obs.json schema: the observability A/B. Each
// run executes one workload twice on identical config — tracing off,
// then tracing on (span trees written as JSONL) — and records the wall
// overhead, the trace volume, and whether the result fingerprints
// matched (they must: tracing is inert by construction).
type obsBench struct {
	Seed int64    `json:"seed"`
	Runs []obsRun `json:"runs"`
}

type obsRun struct {
	Workload string `json:"workload"`
	Tuples   int    `json:"tuples"`
	// UntracedWallMs / TracedWallMs are real elapsed times for the pump;
	// OverheadPct is the traced run's wall cost relative to untraced
	// (noisy at small scales — the span and byte counts are the stable
	// part of this artifact).
	UntracedWallMs float64 `json:"untraced_wall_ms"`
	TracedWallMs   float64 `json:"traced_wall_ms"`
	OverheadPct    float64 `json:"overhead_pct"`
	HITs           int64   `json:"hits"`
	SpentCents     int64   `json:"spent_cents"`
	// Spans is the number of span records in the JSONL trace; TraceBytes
	// its on-disk size.
	Spans      int64 `json:"spans"`
	TraceBytes int64 `json:"trace_bytes"`
	// SameFinger is true when every virtual-time field of the untraced
	// and traced reports agreed (load.VirtualDiff) — the proof that
	// arming the tracer changed nothing.
	SameFinger bool `json:"fingerprints_match"`
}

// runObsBench measures the cost of turning observability on — once over
// the bare task-manager path (filter cascade) and once through the full
// engine (streaming queries) — and writes BENCH_obs.json next to the
// other BENCH artifacts.
func runObsBench(seed int64, scale int) error {
	dir, err := os.MkdirTemp("", "qurk-obs-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	out := obsBench{Seed: seed}
	for _, w := range []struct {
		workload load.Workload
		tuples   int
	}{
		{load.WorkloadFilter, 2000 * scale},
		{load.WorkloadStreaming, 300 * scale},
	} {
		cfg := load.Config{Workload: w.workload, Tuples: w.tuples, Workers: 500, Seed: seed}
		off, err := load.Run(cfg)
		if err != nil {
			return fmt.Errorf("OBS %s untraced: %v", w.workload, err)
		}
		cfg.TracePath = filepath.Join(dir, string(w.workload)+".jsonl")
		on, err := load.Run(cfg)
		if err != nil {
			return fmt.Errorf("OBS %s traced: %v", w.workload, err)
		}
		spans, bytes, err := traceVolume(cfg.TracePath)
		if err != nil {
			return fmt.Errorf("OBS %s trace: %v", w.workload, err)
		}
		offMs := float64(off.Wall) / float64(time.Millisecond)
		onMs := float64(on.Wall) / float64(time.Millisecond)
		r := obsRun{
			Workload:       string(w.workload),
			Tuples:         w.tuples,
			UntracedWallMs: offMs,
			TracedWallMs:   onMs,
			HITs:           on.HITs,
			SpentCents:     int64(on.Spent),
			Spans:          spans,
			TraceBytes:     bytes,
			SameFinger:     load.VirtualDiff(off, on) == nil,
		}
		if offMs > 0 {
			r.OverheadPct = (onMs - offMs) / offMs * 100
		}
		out.Runs = append(out.Runs, r)
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range out.Runs {
		fmt.Printf("OBS %s: untraced %.0f ms vs traced %.0f ms (%+.1f%%), %d spans / %d bytes over %d HITs; fingerprints match: %v\n",
			r.Workload, r.UntracedWallMs, r.TracedWallMs, r.OverheadPct,
			r.Spans, r.TraceBytes, r.HITs, r.SameFinger)
	}
	fmt.Println("wrote BENCH_obs.json")
	return nil
}

// traceVolume counts the span records in a JSONL trace (every line
// after the schema header) and its size in bytes.
func traceVolume(path string) (spans, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lines := int64(0)
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if lines > 0 {
		lines-- // the qurk-trace/v1 header line
	}
	return lines, st.Size(), nil
}
