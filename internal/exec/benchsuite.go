package exec

import (
	"fmt"
	"math/rand"

	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// BenchCase is one local-only operator pipeline measured by the EXEC
// benchmark suite. The same cases back the Benchmark* functions in
// bench_test.go, the alloc-regression gate, and `qurk-bench -only EXEC`,
// so every consumer measures identical plans.
type BenchCase struct {
	Name     string
	SQL      string
	WantRows int
	// BaselineNsOp / BaselineAllocs are the previous executor's
	// measurements (tree-walking expression evaluator, copying scans):
	// the median of 14–16 `qurk-bench -only EXEC` runs of that commit
	// spread over the session that wrote BENCH_exec.json, on the same
	// machine (2-CPU Intel Xeon, GOMAXPROCS 2, go1.24.0). That host's
	// speed drifts by up to 1.5× within minutes, so one run's speedup
	// can be off by that much. The numbers only describe that machine;
	// compare on another one by measuring both commits there.
	BaselineNsOp   float64
	BaselineAllocs int64
	Tables         func() []*relation.Table
}

// Plan builds the case's plan over fresh tables.
func (c BenchCase) Plan() (plan.Node, error) {
	catalog := relation.NewCatalog()
	for _, t := range c.Tables() {
		if err := catalog.Register(t); err != nil {
			return nil, err
		}
	}
	stmt, err := qlang.ParseQuery(c.SQL)
	if err != nil {
		return nil, err
	}
	return plan.Build(stmt, &qlang.Script{}, catalog)
}

// Run executes the plan once and checks the row count.
func (c BenchCase) Run(node plan.Node) (*Query, error) {
	q, err := Start(node, Config{Script: &qlang.Script{}})
	if err != nil {
		return nil, err
	}
	rows := q.Wait()
	if len(rows) != c.WantRows {
		return nil, fmt.Errorf("exec bench %s: rows = %d, want %d", c.Name, len(rows), c.WantRows)
	}
	return q, nil
}

func benchIntTable(name, col string, vals []int64) *relation.Table {
	tab := relation.NewTable(name, relation.MustSchema(relation.Column{Name: col, Kind: relation.KindInt}))
	for _, v := range vals {
		if err := tab.InsertValues(relation.NewInt(v)); err != nil {
			panic(err)
		}
	}
	return tab
}

func benchSeq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// BenchSuite enumerates the per-operator pipelines: a half-selective
// local filter, a local equi-join via the residual path, duplicate
// elimination, and a full sort — each over in-memory tables so the
// numbers isolate executor overhead from crowd simulation.
func BenchSuite() []BenchCase {
	return []BenchCase{
		{Name: "FilterPipeline", SQL: `SELECT v FROM vals WHERE v < 2048`, WantRows: 2048,
			BaselineNsOp: 3022081, BaselineAllocs: 2128,
			Tables: func() []*relation.Table {
				return []*relation.Table{benchIntTable("vals", "v", benchSeq(4096))}
			}},
		{Name: "JoinGrid", SQL: `SELECT a.x, b.y FROM a, b WHERE a.x = b.y`, WantRows: 64,
			BaselineNsOp: 2224129, BaselineAllocs: 166,
			Tables: func() []*relation.Table {
				return []*relation.Table{benchIntTable("a", "x", benchSeq(64)), benchIntTable("b", "y", benchSeq(64))}
			}},
		{Name: "Distinct", SQL: `SELECT DISTINCT v FROM vals`, WantRows: 256,
			BaselineNsOp: 1630813, BaselineAllocs: 568,
			Tables: func() []*relation.Table {
				vals := make([]int64, 4096)
				for i := range vals {
					vals[i] = int64(i % 256)
				}
				return []*relation.Table{benchIntTable("vals", "v", vals)}
			}},
		{Name: "OrderBy", SQL: `SELECT v FROM vals ORDER BY v DESC`, WantRows: 4096,
			BaselineNsOp: 13930305, BaselineAllocs: 4683,
			Tables: func() []*relation.Table {
				vals := benchSeq(4096)
				rng := rand.New(rand.NewSource(42))
				rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
				return []*relation.Table{benchIntTable("vals", "v", vals)}
			}},
	}
}
