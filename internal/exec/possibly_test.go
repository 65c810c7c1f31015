package exec

import (
	"fmt"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// TestPossiblyParsesAndPlans checks the POSSIBLY modifier survives the
// whole front end.
func TestPossiblyParsesAndPlans(t *testing.T) {
	q, err := qlang.ParseQuery(`SELECT img FROM photos WHERE POSSIBLY isCat(img) AND isOutdoor(img)`)
	if err != nil {
		t.Fatal(err)
	}
	and := q.Where.(*qlang.Binary)
	u, ok := and.L.(*qlang.Unary)
	if !ok || u.Op != "POSSIBLY" {
		t.Fatalf("left conjunct = %v", and.L)
	}
}

// TestPossiblyUsesSingleAssignment runs a query where the POSSIBLY
// predicate must be asked with one assignment and the plain predicate
// with the default three.
func TestPossiblyUsesSingleAssignment(t *testing.T) {
	r := newExecRig(t, 0.99)
	var rows [][]relation.Value
	for i := 0; i < 6; i++ {
		rows = append(rows, []relation.Value{relation.NewImage(fmt.Sprintf("cat-out-%d.png", i))})
	}
	r.addTable(t, "photos", []relation.Column{{Name: "img", Kind: relation.KindImage}}, rows...)
	got := r.run(t, `SELECT img FROM photos WHERE POSSIBLY isCat(img) AND isOutdoor(img)`, Config{})
	if len(got) != 6 {
		t.Fatalf("rows = %d", len(got))
	}
	// isCat: 6 questions × 1 assignment = 6 paid answers.
	// isOutdoor: 6 questions × 3 assignments = 18 paid answers.
	cat := r.mgr.StatsFor("iscat")
	out := r.mgr.StatsFor("isoutdoor")
	if cat.SpentCents != 6 {
		t.Errorf("POSSIBLY predicate spent %v, want $0.06 (1 assignment each)", cat.SpentCents)
	}
	if out.SpentCents != 18 {
		t.Errorf("full predicate spent %v, want $0.18 (3 assignments each)", out.SpentCents)
	}
}

// TestPossiblyEvaluatesAsOperand checks evaluation semantics.
func TestPossiblyEvaluatesAsOperand(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "b", Kind: relation.KindBool})
	tup := relation.MustTuple(schema, relation.NewBool(true))
	e := &qlang.Unary{Op: "POSSIBLY", X: &qlang.ColumnRef{Name: "b"}}
	v, err := compileValue(e, schema)(tup.Values, nil)
	if err != nil || !v.Bool() {
		t.Fatalf("POSSIBLY true = %v err=%v", v, err)
	}
}

// TestFilterWindowLimitsConcurrency verifies windowed cascades still
// produce correct results.
func TestFilterWindowLimitsConcurrency(t *testing.T) {
	r := newExecRig(t, 0.99)
	var rows [][]relation.Value
	for i := 0; i < 12; i++ {
		name := "dog"
		if i%3 == 0 {
			name = "cat"
		}
		rows = append(rows, []relation.Value{relation.NewImage(fmt.Sprintf("%s-%d.png", name, i))})
	}
	r.addTable(t, "photos", []relation.Column{{Name: "img", Kind: relation.KindImage}}, rows...)
	got := r.run(t, `SELECT img FROM photos WHERE isCat(img)`, Config{FilterWindow: 2})
	if len(got) != 4 {
		t.Fatalf("windowed filter rows = %d, want 4", len(got))
	}
}

// TestMixedAssignmentsNeverShareHIT: POSSIBLY and plain applications of
// the same task in one query batch separately.
func TestMixedAssignmentsNeverShareHIT(t *testing.T) {
	r := newExecRig(t, 0.99)
	r.addTable(t, "photos", []relation.Column{{Name: "img", Kind: relation.KindImage}},
		[]relation.Value{relation.NewImage("cat-1.png")},
		[]relation.Value{relation.NewImage("cat-2.png")},
	)
	r.addTable(t, "photos2", []relation.Column{{Name: "img", Kind: relation.KindImage}},
		[]relation.Value{relation.NewImage("cat-3.png")},
		[]relation.Value{relation.NewImage("cat-4.png")},
	)
	// Run both flavors concurrently against one manager.
	q1, err := Start(mustPlan(t, r, `SELECT img FROM photos WHERE POSSIBLY isCat(img)`),
		Config{Mgr: r.mgr, Script: r.script})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Start(mustPlan(t, r, `SELECT img FROM photos2 WHERE isCat(img)`),
		Config{Mgr: r.mgr, Script: r.script})
	if err != nil {
		t.Fatal(err)
	}
	q1.Wait()
	q2.Wait()
	s := r.mgr.StatsFor("iscat")
	// 2 tuples × 1 assignment + 2 tuples × 3 assignments = 8 cents.
	if s.SpentCents != 8 {
		t.Fatalf("spent = %v, want $0.08", s.SpentCents)
	}
}
