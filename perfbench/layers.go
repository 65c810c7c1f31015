package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/exec"
	"repro/internal/mturk"
	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/taskmgr"
)

// directSpec is what the direct layer probes replay for a workload.
type directSpec struct {
	sql   []string // the workload's queries
	local []string // the same queries with their crowd predicates removed
	tasks []string // TASK definitions, one per entry
}

// directBudget bounds the wall time each direct probe spends.
const directBudget = 300 * time.Millisecond

// repeat calls f until the budget is spent (at least 3 times, at most
// 2000) and records each call's result under name.
func (p *probe) repeat(name string, f func() (float64, error)) error {
	start := time.Now()
	for i := 0; i < 3 || (i < 2000 && time.Since(start) < directBudget); i++ {
		x, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		p.sample(name, x)
	}
	return nil
}

// measureDirect times the parse, plan and local-exec layers by calling
// their public functions on the workload's own SQL, against eng's
// catalog and tasks. It runs once per traced phase.
func (p *probe) measureDirect(eng *core.Engine, d directSpec) error {
	if p == nil || len(p.samples["qlang.parse_us"]) > 0 {
		return nil
	}
	for _, src := range d.sql {
		if err := p.repeat("qlang.parse_us", func() (float64, error) {
			start := time.Now()
			_, err := qlang.ParseQuery(src)
			return micros(time.Since(start)), err
		}); err != nil {
			return err
		}
	}
	for _, src := range d.tasks {
		if err := p.repeat("qlang.taskdef_parse_us", func() (float64, error) {
			start := time.Now()
			_, err := qlang.ParseTaskDef(src)
			return micros(time.Since(start)), err
		}); err != nil {
			return err
		}
	}
	script := &qlang.Script{Tasks: eng.Tasks()}
	for _, src := range d.sql {
		stmt, err := qlang.ParseQuery(src)
		if err != nil {
			return err
		}
		if err := p.repeat("plan.build_us", func() (float64, error) {
			start := time.Now()
			_, err := plan.Build(stmt, script, eng.Catalog())
			return micros(time.Since(start)), err
		}); err != nil {
			return err
		}
	}
	for _, src := range d.local {
		stmt, err := qlang.ParseQuery(src)
		if err != nil {
			return err
		}
		var bytesPerRow []float64
		if err := p.repeat("exec.local_ns_per_row", func() (float64, error) {
			node, err := plan.Build(stmt, script, eng.Catalog())
			if err != nil {
				return 0, err
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			allocated := ms.TotalAlloc
			start := time.Now()
			q, err := exec.Start(node, exec.Config{Script: script})
			if err != nil {
				return 0, err
			}
			q.Wait()
			wall := time.Since(start)
			runtime.ReadMemStats(&ms)
			if err := q.Err(); err != nil {
				return 0, err
			}
			rows := scannedRows(q.OpStats())
			if rows == 0 {
				return 0, fmt.Errorf("no scanned rows in %q", src)
			}
			bytesPerRow = append(bytesPerRow, float64(ms.TotalAlloc-allocated)/float64(rows))
			return float64(wall.Nanoseconds()) / float64(rows), nil
		}); err != nil {
			return err
		}
		for _, b := range bytesPerRow {
			p.sample("exec.alloc_bytes_per_row", b)
		}
	}
	return nil
}

func scannedRows(ops []exec.OpStats) int64 {
	var n int64
	for _, st := range ops {
		if strings.HasPrefix(st.Label, "Scan(") {
			n += st.Out
		}
	}
	return n
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// measureStore replays a populated store directory directly and sizes
// it against the records its writer reported.
func (p *probe) measureStore(dir string, written store.Stats) error {
	if p == nil {
		return nil
	}
	start := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	info := st.Replay()
	if err := st.Close(); err != nil {
		return err
	}
	var size int64
	if err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			size += fi.Size()
		}
		return err
	}); err != nil {
		return err
	}
	p.sample("store.replay_ms", float64(elapsed.Nanoseconds())/1e6)
	p.sample("store.replay_records", float64(info.Records))
	p.sample("store.bytes_per_record", ratio(size, written.Written))
	p.sample("store.drop_ratio", ratio(written.Dropped, written.Appended))
	return nil
}

// stackPass runs the filter cascade on the bare stack — clock,
// marketplace and task manager from their public constructors, pumped
// by Clock.Step on this goroutine, the way internal/load drives it —
// and records the self time of Manager.Submit and Clock.Step: their
// wall time minus the wrapped crowd's and the cascade's own Done
// callbacks'.
func (p *probe) stackPass(photos *relation.Table, oracle crowd.Oracle, ccfg crowd.Config, isCat, isOutdoor *qlang.TaskDef) error {
	spans := &selfTimer{}
	pool := (&probe{hists: map[string]*promHist{}, samples: map[string][]float64{}, stackSpans: spans}).wrapPool(ccfg, oracle)
	clock := mturk.NewClock()
	defer clock.Close()
	market := mturk.NewMarketplace(clock, pool)
	market.SetAutoDispose(true, nil)
	mgr := taskmgr.New(market, nil, nil, nil)

	outstanding := 0
	var failed error
	submit := func(def *qlang.TaskDef, img relation.Value, then func(taskmgr.Outcome)) {
		outstanding++
		spans.enter()
		mgr.Submit(taskmgr.Request{Def: def, Args: []relation.Value{img}, Done: func(out taskmgr.Outcome) {
			spans.enter()
			outstanding--
			if out.Err != nil && failed == nil {
				failed = out.Err
			}
			then(out)
			spans.exit(spanDone)
		}})
		spans.exit(spanSubmit)
	}
	for _, row := range photos.Snapshot() {
		img := row.Get("img")
		submit(isCat, img, func(out taskmgr.Outcome) {
			if out.Err == nil && out.Value.Truthy() {
				submit(isOutdoor, img, func(taskmgr.Outcome) {})
			}
		})
	}
	mgr.FlushAll()
	for outstanding > 0 {
		spans.enter()
		ok := clock.Step()
		spans.exit(spanStep)
		if !ok {
			mgr.FlushAll()
			if clock.Pending() == 0 {
				return fmt.Errorf("stack pass stalled with %d outcomes outstanding", outstanding)
			}
		}
	}
	if failed != nil {
		return fmt.Errorf("stack pass: %w", failed)
	}
	p.sample("taskmgr.submit_us", spans.selfUs(spanSubmit))
	p.sample("mturk.step_us", spans.selfUs(spanStep))
	return nil
}
