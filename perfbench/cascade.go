package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

const isCatTask = `
TASK isCat(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this photo of a cat? %s", img
  Response: YesNo
`

const isOutdoorTask = `
TASK isOutdoor(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %s", img
  Response: YesNo
`

const (
	cascadeSQL      = `SELECT id, img FROM photos WHERE isCat(img) AND isOutdoor(img)`
	cascadeLocalSQL = `SELECT id, img FROM photos`
)

// photoSet is one round's generated photos with their ground truth.
type photoSet struct {
	table  *relation.Table
	oracle crowd.Oracle
	truth  map[string]bool // img → passes isCat AND isOutdoor
}

func newPhotoSet(n int, seed int64) photoSet {
	ds := workload.Photos(n, 0.5, 0.6, seed)
	ps := photoSet{table: ds.Tables[0], oracle: ds.Oracle, truth: make(map[string]bool, n)}
	for _, row := range ps.table.Snapshot() {
		img := row.Get("img")
		args := []relation.Value{img}
		ps.truth[img.Str()] = ds.Oracle.Truth("isCat", args).Truthy() && ds.Oracle.Truth("isOutdoor", args).Truthy()
	}
	return ps
}

// rows returns a table named name holding rows [lo, hi) of the set.
func (ps photoSet) rows(name string, lo, hi int) *relation.Table {
	t := relation.NewTable(name, ps.table.Schema())
	for _, row := range ps.table.Snapshot()[lo:hi] {
		_ = t.InsertValues(row.Values...) // same schema: cannot fail
	}
	return t
}

// roundSeed derives round r's input seed from the run's seed.
func roundSeed(seed int64, r int) int64 { return seed*7919 + int64(r)*104729 + 1 }

// loadTables copies each input table into a fresh relation (the data a
// user loads) and registers it, then defines the tasks: the setup that
// setup_s times together with engine construction.
func loadTables(eng *core.Engine, tasks string, tables ...*relation.Table) error {
	for _, src := range tables {
		t := relation.NewTable(src.Name(), src.Schema())
		for _, row := range src.Snapshot() {
			if err := t.InsertValues(row.Values...); err != nil {
				return err
			}
		}
		if err := eng.Register(t); err != nil {
			return err
		}
	}
	return eng.Define(tasks)
}

// checkCascade verifies a cascade query's rows — every returned image
// is in the query's input, once — and scores them against the truth.
func checkCascade(rows []relation.Tuple, input *relation.Table, truth map[string]bool, f1 *f1Count) error {
	in := make(map[string]bool, input.Len())
	var want []string
	for _, row := range input.Snapshot() {
		img := row.Get("img").Str()
		in[img] = true
		if truth[img] {
			want = append(want, img)
		}
	}
	got := make([]string, 0, len(rows))
	seen := make(map[string]bool, len(rows))
	for _, t := range rows {
		img := t.Values[1].Str()
		if !in[img] || seen[img] {
			return fmt.Errorf("returned image %q is not a distinct input row", img)
		}
		seen[img] = true
		got = append(got, img)
	}
	f1.compare(got, want)
	return nil
}

// filterCascade: one two-predicate crowd filter over a large photo
// table on the default noisy crowd.
type filterCascade struct {
	seed   int64
	photos int
}

func (w *filterCascade) sizes() map[string]int {
	return map[string]int{"photos": w.photos, "workers": cascadeWorkers, "queries_per_round": 1}
}

const cascadeWorkers = 500

func cascadeCrowd(seed int64) crowd.Config {
	return crowd.Config{Workers: cascadeWorkers, Shards: 8, Seed: seed}
}

func (w *filterCascade) round(r int, p *probe) (roundResult, error) {
	var res roundResult
	seed := roundSeed(w.seed, r)
	ps := newPhotoSet(w.photos, seed)
	start := time.Now()
	eng, pp, err := p.newEngine(core.Config{}, cascadeCrowd(seed), ps.oracle)
	if err != nil {
		return res, err
	}
	defer eng.Close()
	if err := loadTables(eng, isCatTask+isOutdoorTask, ps.table); err != nil {
		return res, err
	}
	res.setup = time.Since(start)

	var rows []relation.Tuple
	var wall time.Duration
	res.rt.measure(func() { rows, wall, err = p.runQuery(eng, cascadeSQL) })
	res.attempted = 1
	if err == nil {
		err = checkCascade(rows, ps.table, ps.truth, &res.f1)
	}
	if err != nil {
		res.failed = 1
		fmt.Fprintln(os.Stderr, "filter_cascade:", err)
	}
	res.wall = wall
	res.tuples = w.photos
	res.queryMs = []float64{ms(wall)}
	res.hits = int64(eng.Marketplace().Stats().HITsPosted)
	res.cents = int64(eng.Manager().Account().Spent())
	makespan := eng.Clock().Now()
	res.vmin = makespan.Minutes()
	p.harvest(eng, pp, makespan.Duration())
	if p != nil && len(p.samples["taskmgr.submit_us"]) == 0 {
		if err := p.measureDirect(eng, directSpec{
			sql: []string{cascadeSQL}, local: []string{cascadeLocalSQL},
			tasks: []string{isCatTask, isOutdoorTask},
		}); err != nil {
			return res, err
		}
		isCat, _ := qlang.ParseTaskDef(isCatTask) // parsed above: cannot fail
		isOutdoor, _ := qlang.ParseTaskDef(isOutdoorTask)
		if err := p.stackPass(ps.table, ps.oracle, cascadeCrowd(seed), isCat, isOutdoor); err != nil {
			return res, err
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// warmRestart: a cold engine with a knowledge store and EM inference
// runs the cascade on half of a photo set; a fresh engine replays the
// store and runs it on an input half of which overlaps the first.
type warmRestart struct {
	seed   int64
	photos int
}

func (w *warmRestart) sizes() map[string]int {
	return map[string]int{"photos": w.photos, "cold_rows": w.photos / 2, "warm_rows": w.photos / 2,
		"overlap_rows": w.photos / 4, "workers": cascadeWorkers, "queries_per_round": 2}
}

// cascadePhase is one engine's share of a warm_restart round.
type cascadePhase struct {
	setup, wall time.Duration
	rt          runtimeCounters
	hits, cents int64
	makespan    time.Duration
	journal     store.Stats
	failed      bool
}

func (w *warmRestart) round(r int, p *probe) (roundResult, error) {
	var res roundResult
	seed := roundSeed(w.seed, r)
	ps := newPhotoSet(w.photos, seed)
	half, quarter := w.photos/2, w.photos/4
	cold := ps.rows("photos", 0, half)
	warm := ps.rows("photos", quarter, quarter+half)
	dir, err := os.MkdirTemp("", "qurk-store-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	cfg := core.Config{StorePath: dir, Inference: &core.InferenceConfig{Method: "em"}}

	coldAnswers := map[cache.Key][]relation.Value{}
	overlap := ps.table.Snapshot()[quarter:half]
	run := func(input *relation.Table, isWarm bool) (cascadePhase, error) {
		var ph cascadePhase
		start := time.Now()
		eng, pp, err := p.newEngine(cfg, cascadeCrowd(seed), ps.oracle)
		if err != nil {
			return ph, err
		}
		err = func() error {
			if err := loadTables(eng, isCatTask+isOutdoorTask, input); err != nil {
				return err
			}
			ph.setup = time.Since(start)
			var rows []relation.Tuple
			var err error
			ph.rt.measure(func() { rows, ph.wall, err = p.runQuery(eng, cascadeSQL) })
			if err == nil {
				err = checkCascade(rows, input, ps.truth, &res.f1)
			}
			if err == nil {
				err = compareCache(eng, overlap, coldAnswers, isWarm)
			}
			if err != nil {
				ph.failed = true
				fmt.Fprintln(os.Stderr, "warm_restart:", err)
			}
			ph.hits = int64(eng.Marketplace().Stats().HITsPosted)
			ph.cents = int64(eng.Manager().Account().Spent())
			ph.makespan = eng.Clock().Now().Duration()
			p.harvest(eng, pp, ph.makespan)
			if p != nil && isWarm {
				return p.measureDirect(eng, directSpec{
					sql: []string{cascadeSQL}, local: []string{cascadeLocalSQL},
					tasks: []string{isCatTask, isOutdoorTask},
				})
			}
			return nil
		}()
		eng.Close()
		ph.journal = eng.Store().Stats()
		return ph, err
	}

	c, err := run(cold, false)
	if err != nil {
		return res, err
	}
	if p != nil {
		// The cold engine has closed, so its journal is fully written.
		if err := p.measureStore(dir, c.journal); err != nil {
			return res, err
		}
	}
	wm, err := run(warm, true)
	if err != nil {
		return res, err
	}
	res.setup = c.setup + wm.setup
	res.wall = c.wall + wm.wall
	res.rt.add(c.rt)
	res.rt.add(wm.rt)
	res.tuples = cold.Len() + warm.Len()
	// Cold and warm queries differ by design (the warm one is half
	// cached); the per-query latency is the warm query's.
	res.queryMs = []float64{ms(wm.wall)}
	res.hits = c.hits + wm.hits
	res.cents = c.cents + wm.cents
	res.vmin = (c.makespan + wm.makespan).Minutes()
	res.attempted = 2
	for _, ph := range []cascadePhase{c, wm} {
		if ph.failed {
			res.failed++
		}
	}
	return res, nil
}

// compareCache checks the cache answers of the overlapping photos: the
// cold engine's are recorded into coldAnswers, and every one the warm
// engine holds from the replayed store must equal the cold run's.
func compareCache(eng *core.Engine, overlap []relation.Tuple, coldAnswers map[cache.Key][]relation.Value, isWarm bool) error {
	c := eng.Manager().Cache()
	for _, def := range eng.Tasks() {
		for _, row := range overlap {
			key := cache.NewKey(def.Name, []relation.Value{row.Get("img")})
			if !isWarm {
				if e, ok := c.Peek(key); ok {
					coldAnswers[key] = e.Answers
				}
				continue
			}
			want, ok := coldAnswers[key]
			if !ok {
				continue
			}
			if got, _ := c.Peek(key); !slices.EqualFunc(got.Answers, want, relation.Value.Equal) {
				return fmt.Errorf("warm cache answers %v for %s(%s), cold run answered %v",
					got.Answers, def.Name, row.Get("img").Str(), want)
			}
		}
	}
	return nil
}
