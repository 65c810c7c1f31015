package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/relation"
)

const (
	scanCategories = 50
	scanPriceStep  = 10
	scanWindow     = 20 * scanPriceStep // 20 prices of a category per window
	scanMinScore   = 40
	scanLimit      = 5
	scanWorkers    = 100
)

// scanScores cycles so that 3 of every 5 consecutive prices, and so 12
// of each window's 20 rows, pass score >= scanMinScore.
var scanScores = []int64{10, 50, 70, 90, 30}

// localScan: many literal-varying queries over one large listings
// table. Machine predicates, ORDER BY and LIMIT do almost all the work;
// the crowd predicate sees only the handful of rows that survive them.
type localScan struct {
	seed    int64
	rows    int
	queries int // per round
	perCat  int // rows per category
	table   *relation.Table
	oracle  crowd.Oracle
	cat     map[string]bool // img → isCat truth
	byCat   map[string][]relation.Tuple
	byID    map[int64]relation.Tuple
}

const scanTask = isCatTask

// newLocalScan builds the listings table. Within a category the prices
// are distinct multiples of scanPriceStep, and scores cycle through
// scanScores, so every query's machine predicates pass exactly
// 12 rows: the crowd work per query is fixed and only the
// literals, the row order and the crowd's answers vary with the seed.
func newLocalScan(seed int64, rows, queries int) *localScan {
	rng := rand.New(rand.NewSource(seed))
	w := &localScan{seed: seed, rows: rows, queries: queries, cat: make(map[string]bool, rows)}
	w.perCat = rows / scanCategories
	w.table = relation.NewTable("listings", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "cat", Kind: relation.KindString},
		relation.Column{Name: "price", Kind: relation.KindInt},
		relation.Column{Name: "score", Kind: relation.KindInt},
		relation.Column{Name: "img", Kind: relation.KindImage}))
	order := rng.Perm(w.perCat * scanCategories)
	for i, slot := range order {
		c, j := slot%scanCategories, slot/scanCategories
		isCat := rng.Float64() < 0.5
		subject := "toaster"
		if isCat {
			subject = "feline"
		}
		img := fmt.Sprintf("listing%06d-%s.png", i, subject)
		w.cat[img] = isCat
		_ = w.table.InsertValues( // matches the schema: cannot fail
			relation.NewInt(int64(i+1)),
			relation.NewString(fmt.Sprintf("c%02d", c)),
			relation.NewInt(int64(j*scanPriceStep)),
			relation.NewInt(scanScores[j%len(scanScores)]),
			relation.NewImage(img))
	}
	w.byCat = map[string][]relation.Tuple{}
	w.byID = make(map[int64]relation.Tuple, rows)
	for _, t := range w.table.Snapshot() {
		c := t.Get("cat").Str()
		w.byCat[c] = append(w.byCat[c], t)
		w.byID[t.Get("id").Int()] = t
	}
	w.oracle = crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		if len(args) == 0 {
			return relation.Null
		}
		return relation.NewBool(w.cat[args[0].Str()])
	})
	return w
}

func (w *localScan) sizes() map[string]int {
	return map[string]int{"rows": w.rows, "queries_per_round": w.queries, "workers": scanWorkers}
}

// scanQuery is one query's literals.
type scanQuery struct {
	cat string
	lo  int64
}

func (q scanQuery) sql() string {
	return fmt.Sprintf(`SELECT id, price, img FROM listings WHERE cat = '%s' AND price >= %d AND price < %d AND score >= %d AND isCat(img) ORDER BY price DESC, id LIMIT %d`,
		q.cat, q.lo, q.lo+scanWindow, scanMinScore, scanLimit)
}

func (q scanQuery) localSQL() string {
	return fmt.Sprintf(`SELECT id, price, img FROM listings WHERE cat = '%s' AND price >= %d AND price < %d AND score >= %d ORDER BY price DESC, id LIMIT %d`,
		q.cat, q.lo, q.lo+scanWindow, scanMinScore, scanLimit)
}

func (q scanQuery) machine(t relation.Tuple) bool {
	p := t.Get("price").Int()
	return t.Get("cat").Str() == q.cat && p >= q.lo && p < q.lo+scanWindow && t.Get("score").Int() >= scanMinScore
}

// truth is the query's true answer: the ids of the top rows by
// (price DESC, id) among those passing every predicate.
func (w *localScan) truth(q scanQuery) []relation.Tuple {
	var pass []relation.Tuple
	for _, t := range w.byCat[q.cat] {
		if q.machine(t) && w.cat[t.Get("img").Str()] {
			pass = append(pass, t)
		}
	}
	sort.Slice(pass, func(i, j int) bool { return before(pass[i], pass[j]) })
	return pass[:min(len(pass), scanLimit)]
}

// before is the query's ORDER BY price DESC, id.
func before(a, b relation.Tuple) bool {
	pa, pb := a.Get("price").Int(), b.Get("price").Int()
	if pa != pb {
		return pa > pb
	}
	return a.Get("id").Int() < b.Get("id").Int()
}

func (w *localScan) round(r int, p *probe) (roundResult, error) {
	var res roundResult
	seed := roundSeed(w.seed, r)
	rng := rand.New(rand.NewSource(seed))
	qs := make([]scanQuery, w.queries)
	for i := range qs {
		qs[i] = scanQuery{cat: fmt.Sprintf("c%02d", rng.Intn(scanCategories)),
			lo: int64(rng.Intn(w.perCat-scanWindow/scanPriceStep) * scanPriceStep)}
	}

	start := time.Now()
	eng, pp, err := p.newEngine(core.Config{}, crowd.Config{Workers: scanWorkers, Seed: seed}, w.oracle)
	if err != nil {
		return res, err
	}
	defer eng.Close()
	if err := loadTables(eng, scanTask, w.table); err != nil {
		return res, err
	}
	res.setup = time.Since(start)

	rows := make([][]relation.Tuple, len(qs))
	errs := make([]error, len(qs))
	res.rt.measure(func() {
		for i, q := range qs {
			var wall time.Duration
			rows[i], wall, errs[i] = p.runQuery(eng, q.sql())
			res.wall += wall
			res.queryMs = append(res.queryMs, ms(wall))
		}
	})
	for i, q := range qs {
		res.attempted++
		res.tuples += w.table.Len()
		err := errs[i]
		if err == nil {
			err = w.check(q, rows[i], &res.f1)
		}
		if err != nil {
			res.failed++
			fmt.Fprintln(os.Stderr, "local_scan:", err)
		}
	}
	res.hits = int64(eng.Marketplace().Stats().HITsPosted)
	res.cents = int64(eng.Manager().Account().Spent())
	makespan := eng.Clock().Now()
	res.vmin = makespan.Minutes()
	p.harvest(eng, pp, makespan.Duration())
	if p != nil {
		err = p.measureDirect(eng, directSpec{
			sql: []string{qs[0].sql()}, local: []string{qs[0].localSQL()}, tasks: []string{scanTask},
		})
	}
	return res, err
}

// check verifies one query's rows: each is a real input row passing the
// machine predicates, they come in ORDER BY order, and LIMIT holds.
func (w *localScan) check(q scanQuery, rows []relation.Tuple, f1 *f1Count) error {
	if len(rows) > scanLimit {
		return fmt.Errorf("%d rows exceed LIMIT %d", len(rows), scanLimit)
	}
	got := make([]string, 0, len(rows))
	var prev relation.Tuple
	for i, t := range rows {
		in, ok := w.byID[t.Values[0].Int()]
		if !ok || in.Get("price").Int() != t.Values[1].Int() || in.Get("img").Str() != t.Values[2].Str() {
			return fmt.Errorf("row %v is not an input row", t.Values)
		}
		if !q.machine(in) {
			return fmt.Errorf("row %v fails the machine predicates of %s", t.Values, q.sql())
		}
		if i > 0 && before(in, prev) {
			return fmt.Errorf("row %v is out of ORDER BY order", t.Values)
		}
		prev = in
		got = append(got, in.Get("img").Str())
	}
	var want []string
	for _, t := range w.truth(q) {
		want = append(want, t.Get("img").Str())
	}
	f1.compare(got, want)
	return nil
}
