package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/relation"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

const tenantTasks = isCatTask + `
TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures showing the same person."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)

TASK rateSq(Image img)
RETURNS Int:
  TaskType: Rating
  Text: "Rate this item from 1 to 9. %s", img
  Response: Rating(1, 9)
  Compare: orderSq

TASK orderSq(Image img)
RETURNS Int:
  TaskType: Rank
  Text: "Order these items from worst to best."
  Response: Order
  GroupSize: 5
`

const (
	tenantClients     = 2
	tenantWorkers     = 200
	tenantMaxInflight = 8
	tenantFilterRows  = 8  // photos per filter query
	tenantBlock       = 5  // celebrities × sightings per join query: one 5×5 grid
	tenantRankRows    = 10 // items per crowd ORDER BY
	tenantTopK        = 3
	// tenantKindRun is how many queries in a row each client runs of one
	// kind. Both clients run the same kind side by side, so their crowd
	// work meets in shared batches even when they drift a few queries
	// apart.
	tenantKindRun = 10
)

// tenants: thousands of small queries from two closed-loop clients
// through one engine, with an admission cap, shared batching and a
// batching base policy. Queries cycle through a crowd filter, a 5×5
// grid join and a crowd ORDER BY … LIMIT.
type tenants struct {
	seed                  int64
	queries               int // per round, across both clients
	photos, celebs, items int // table sizes
}

// tenantData is one round's tables with their ground truth. Each round
// draws its own, so a run's crowd costs average over many data sets.
type tenantData struct {
	photos  *relation.Table
	celebs  *relation.Table
	spotted *relation.Table
	items   *relation.Table
	oracle  crowd.Oracle
	isCat   map[string]bool
	score   map[string]float64 // item img → latent quality
}

func (w *tenants) data(seed int64) *tenantData {
	d := &tenantData{isCat: map[string]bool{}, score: map[string]float64{}}
	ph := workload.Photos(w.photos, 0.5, 0.6, seed)
	d.photos = ph.Tables[0]
	for _, t := range d.photos.Snapshot() {
		img := t.Get("img")
		d.isCat[img.Str()] = ph.Oracle.Truth("isCat", []relation.Value{img}).Truthy()
	}

	// Sighting j shows, with probability 0.4, one of the five
	// celebrities of its own block, so most 5×5 grids hold a match.
	rng := rand.New(rand.NewSource(seed))
	d.celebs = relation.NewTable("celebrities", relation.MustSchema(
		relation.Column{Name: "cid", Kind: relation.KindInt},
		relation.Column{Name: "image", Kind: relation.KindImage}))
	d.spotted = relation.NewTable("spotted", relation.MustSchema(
		relation.Column{Name: "sid", Kind: relation.KindInt},
		relation.Column{Name: "image", Kind: relation.KindImage}))
	for i := 0; i < w.celebs; i++ {
		// Both inserts match their table's schema, so they cannot fail.
		_ = d.celebs.InsertValues(relation.NewInt(int64(i+1)), relation.NewImage(fmt.Sprintf("person%04d-studio.png", i)))
		ref := fmt.Sprintf("nobody%04d-street.png", i)
		if rng.Float64() < 0.4 {
			ref = fmt.Sprintf("person%04d-street%04d.png", i/tenantBlock*tenantBlock+rng.Intn(tenantBlock), i)
		}
		_ = d.spotted.InsertValues(relation.NewInt(int64(i+1)), relation.NewImage(ref))
	}

	rk := workload.RankItems(w.items, 9, "rateSq", seed)
	d.items = rk.Tables[0]
	for _, t := range d.items.Snapshot() {
		d.score[t.Get("img").Str()] = t.Get("truth").Float()
	}
	d.oracle = workload.Combine(ph.Oracle, rk.Oracle, workload.OrderOracle(d.items, "orderSq"),
		crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
			if !strings.EqualFold(task, "samePerson") || len(args) < 2 {
				return relation.Null
			}
			return relation.NewBool(samePerson(args[0].Str(), args[1].Str()))
		}))
	return d
}

// samePerson is the join's ground truth: images of one person share the
// reference prefix before the first '-'.
func samePerson(a, b string) bool {
	pa, _, _ := strings.Cut(a, "-")
	pb, _, _ := strings.Cut(b, "-")
	return pa == pb
}

func (w *tenants) sizes() map[string]int {
	return map[string]int{"queries_per_round": w.queries, "clients": tenantClients,
		"photos": w.photos, "celebrities": w.celebs, "sightings": w.celebs,
		"items": w.items, "workers": tenantWorkers, "max_inflight_hits": tenantMaxInflight}
}

// tenantQuery is one query of the mix with the window it reads.
type tenantQuery struct {
	kind int   // 0 filter, 1 join, 2 rank
	lo   int64 // window start (exclusive); ids are 1-based
}

func (q tenantQuery) sql() string {
	switch q.kind {
	case 0:
		return fmt.Sprintf(`SELECT id, img FROM photos WHERE id > %d AND id <= %d AND isCat(img)`, q.lo, q.lo+tenantFilterRows)
	case 1:
		return fmt.Sprintf(`SELECT celebrities.cid, spotted.sid FROM celebrities, spotted WHERE celebrities.cid > %d AND celebrities.cid <= %d AND spotted.sid > %d AND spotted.sid <= %d AND samePerson(celebrities.image, spotted.image)`,
			q.lo, q.lo+tenantBlock, q.lo, q.lo+tenantBlock)
	default:
		return fmt.Sprintf(`SELECT id, img FROM items WHERE id > %d AND id <= %d ORDER BY rateSq(img) DESC LIMIT %d`, q.lo, q.lo+tenantRankRows, tenantTopK)
	}
}

// localSQL is sql() with the crowd predicate or crowd ORDER BY removed.
func (q tenantQuery) localSQL() string {
	switch q.kind {
	case 0:
		return fmt.Sprintf(`SELECT id, img FROM photos WHERE id > %d AND id <= %d`, q.lo, q.lo+tenantFilterRows)
	case 1:
		return fmt.Sprintf(`SELECT celebrities.cid, spotted.sid FROM celebrities, spotted WHERE celebrities.cid > %d AND celebrities.cid <= %d AND spotted.sid > %d AND spotted.sid <= %d`,
			q.lo, q.lo+tenantBlock, q.lo, q.lo+tenantBlock)
	default:
		return fmt.Sprintf(`SELECT id, img FROM items WHERE id > %d AND id <= %d LIMIT %d`, q.lo, q.lo+tenantRankRows, tenantTopK)
	}
}

func (q tenantQuery) inputTuples() int {
	switch q.kind {
	case 0:
		return tenantFilterRows
	case 1:
		return 2 * tenantBlock
	default:
		return tenantRankRows
	}
}

// window returns a copy of the rows of t whose first column lies in the
// query's id window.
func (q tenantQuery) window(t *relation.Table, width int64) []relation.Tuple {
	return append([]relation.Tuple(nil), t.Snapshot()[q.lo:min(q.lo+width, int64(t.Len()))]...)
}

// check verifies one query's rows against its window and scores them:
// filter and join rows must come from the window; the crowd sort must
// respect LIMIT, and is scored as overlap with the true top k.
func (d *tenantData) check(q tenantQuery, rows []relation.Tuple, f1 *f1Count) error {
	var got, want []string
	switch q.kind {
	case 0, 2:
		tab, width := d.photos, int64(tenantFilterRows)
		if q.kind == 2 {
			tab, width = d.items, tenantRankRows
		}
		win := q.window(tab, width)
		in := map[string]bool{}
		for _, t := range win {
			in[t.Get("img").Str()] = true
		}
		for _, t := range rows {
			if !in[t.Values[1].Str()] {
				return fmt.Errorf("row %v is outside the window of %s", t.Values, q.sql())
			}
			got = append(got, t.Values[1].Str())
		}
		if q.kind == 0 {
			for _, t := range win {
				if img := t.Get("img").Str(); d.isCat[img] {
					want = append(want, img)
				}
			}
			break
		}
		if len(rows) > tenantTopK {
			return fmt.Errorf("%d rows exceed LIMIT %d", len(rows), tenantTopK)
		}
		sort.Slice(win, func(i, j int) bool {
			return d.score[win[i].Get("img").Str()] > d.score[win[j].Get("img").Str()]
		})
		for _, t := range win[:min(tenantTopK, len(win))] {
			want = append(want, t.Get("img").Str())
		}
	case 1:
		cs, ss := q.window(d.celebs, tenantBlock), q.window(d.spotted, tenantBlock)
		in := map[string]bool{}
		for _, c := range cs {
			for _, s := range ss {
				key := fmt.Sprintf("%d/%d", c.Get("cid").Int(), s.Get("sid").Int())
				in[key] = true
				if samePerson(c.Get("image").Str(), s.Get("image").Str()) {
					want = append(want, key)
				}
			}
		}
		for _, t := range rows {
			key := fmt.Sprintf("%d/%d", t.Values[0].Int(), t.Values[1].Int())
			if !in[key] {
				return fmt.Errorf("pair %s is outside the grid of %s", key, q.sql())
			}
			got = append(got, key)
		}
	}
	f1.compare(got, want)
	return nil
}

func (w *tenants) round(r int, p *probe) (roundResult, error) {
	var res roundResult
	seed := roundSeed(w.seed, r)
	d := w.data(seed)
	rng := rand.New(rand.NewSource(seed))
	qs := make([]tenantQuery, w.queries)
	for i := range qs {
		q := tenantQuery{kind: i / tenantClients / tenantKindRun % 3}
		switch q.kind {
		case 0:
			q.lo = int64(rng.Intn(w.photos/tenantFilterRows) * tenantFilterRows)
		case 1:
			q.lo = int64(rng.Intn(w.celebs/tenantBlock) * tenantBlock)
		default:
			q.lo = int64(rng.Intn(w.items/tenantRankRows) * tenantRankRows)
		}
		qs[i] = q
	}

	start := time.Now()
	eng, pp, err := p.newEngine(core.Config{MaxInflightHITs: tenantMaxInflight},
		crowd.Config{Workers: tenantWorkers, Seed: seed}, d.oracle)
	if err != nil {
		return res, err
	}
	defer eng.Close()
	if err := loadTables(eng, tenantTasks, d.photos, d.celebs, d.spotted, d.items); err != nil {
		return res, err
	}
	// Repeated windows re-ask the crowd: the Task Cache is off, so every
	// query posts work and the per-query crowd paths stay loaded.
	eng.Manager().SetBasePolicy(taskmgr.Policy{Assignments: 3, BatchSize: 5, PriceCents: 1, Linger: time.Minute})
	res.setup = time.Since(start)

	// Client c runs queries c, c+2, …; each slot is written by one
	// client only, and the outputs are checked after both have finished.
	rows := make([][]relation.Tuple, len(qs))
	errs := make([]error, len(qs))
	walls := make([]time.Duration, len(qs))
	res.rt.measure(func() {
		var wg sync.WaitGroup
		phaseStart := time.Now()
		for c := 0; c < tenantClients; c++ {
			wg.Add(1)
			go func(first int) {
				defer wg.Done()
				for i := first; i < len(qs); i += tenantClients {
					rows[i], walls[i], errs[i] = p.runQuery(eng, qs[i].sql(), core.WithSharedBatching(true))
				}
			}(c)
		}
		wg.Wait()
		res.wall = time.Since(phaseStart)
	})
	for i, q := range qs {
		res.attempted++
		res.tuples += q.inputTuples()
		res.queryMs = append(res.queryMs, ms(walls[i]))
		err := errs[i]
		if err == nil {
			err = d.check(q, rows[i], &res.f1)
		}
		if err != nil {
			res.failed++
			fmt.Fprintln(os.Stderr, "tenants:", err)
		}
	}
	res.hits = int64(eng.Marketplace().Stats().HITsPosted)
	res.cents = int64(eng.Manager().Account().Spent())
	makespan := eng.Clock().Now()
	res.vmin = makespan.Minutes()
	p.harvest(eng, pp, makespan.Duration())
	if p != nil {
		d := directSpec{tasks: splitTasks(tenantTasks)}
		for kind := range 3 {
			q := qs[min(kind*tenantClients*tenantKindRun, len(qs)-1)]
			d.sql = append(d.sql, q.sql())
			d.local = append(d.local, q.localSQL())
		}
		err = p.measureDirect(eng, d)
	}
	return res, err
}

// splitTasks cuts a source holding several TASK definitions into one
// source per definition.
func splitTasks(src string) []string {
	var out []string
	for _, part := range strings.Split(src, "\nTASK ")[1:] {
		out = append(out, "TASK "+part)
	}
	return out
}
