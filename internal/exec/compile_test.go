package exec

import (
	"math/rand"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// fuzzSchema mixes every scalar kind, qualified columns, and a base name
// ("a") that two tables share, so bare "a" is ambiguous.
var fuzzSchema = relation.MustSchema(
	relation.Column{Name: "t.a", Kind: relation.KindInt},
	relation.Column{Name: "t.b", Kind: relation.KindFloat},
	relation.Column{Name: "t.s", Kind: relation.KindString},
	relation.Column{Name: "u.a", Kind: relation.KindInt},
	relation.Column{Name: "u.flag", Kind: relation.KindBool},
	relation.Column{Name: "u.img", Kind: relation.KindImage},
)

// fuzzColumns are the column references the generator draws from:
// qualified and bare, in mixed case, ambiguous and unknown.
var fuzzColumns = []*qlang.ColumnRef{
	{Table: "t", Name: "a"}, {Table: "u", Name: "a"}, {Table: "T", Name: "B"},
	{Name: "b"}, {Name: "s"}, {Name: "FLAG"}, {Name: "img"},
	{Name: "a"}, {Name: "zz"}, {Table: "v", Name: "s"},
}

var fuzzBinaryOps = []string{"AND", "OR", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"}

var fuzzUnaryOps = []string{"NOT", "POSSIBLY", "-", "~"}

// exprGen builds an expression from fuzz bytes; once the bytes run out
// every choice is 0, which picks a leaf, so generation always ends.
type exprGen struct {
	data []byte
	i    int
}

func (g *exprGen) pick(n int) int {
	if g.i >= len(g.data) {
		return 0
	}
	b := g.data[g.i]
	g.i++
	return int(b) % n
}

func (g *exprGen) expr(depth int) qlang.Expr {
	kind := g.pick(8)
	if depth <= 0 {
		kind %= 3
	}
	switch kind {
	case 0:
		return fuzzColumns[g.pick(len(fuzzColumns))]
	case 1:
		return &qlang.Literal{Value: g.literal()}
	case 2:
		if g.pick(16) == 0 {
			return &qlang.Star{}
		}
		return fuzzColumns[g.pick(len(fuzzColumns))]
	case 3:
		return &qlang.Unary{Op: fuzzUnaryOps[g.pick(len(fuzzUnaryOps))], X: g.expr(depth - 1)}
	default:
		return &qlang.Binary{Op: fuzzBinaryOps[g.pick(len(fuzzBinaryOps))], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	}
}

func (g *exprGen) literal() relation.Value {
	switch g.pick(7) {
	case 0:
		return relation.Null
	case 1:
		return relation.NewInt(int64(g.pick(7)) - 3)
	case 2:
		return relation.NewInt(1<<53 + int64(g.pick(3)))
	case 3:
		return relation.NewFloat(float64(g.pick(9))/2 - 2)
	case 4:
		return relation.NewString([]string{"", "x", "y"}[g.pick(3)])
	case 5:
		return relation.NewBool(g.pick(2) == 1)
	default:
		return relation.NewImage("x")
	}
}

// fuzzRow draws one row for fuzzSchema, with NULLs in every column.
func fuzzRow(rng *rand.Rand) relation.Tuple {
	null := func() bool { return rng.Intn(5) == 0 }
	vals := make([]relation.Value, fuzzSchema.Len())
	for i := range vals {
		if null() {
			continue
		}
		switch fuzzSchema.Column(i).Kind {
		case relation.KindInt:
			vals[i] = relation.NewInt([]int64{0, 1, -2, 3, 1 << 53, 1<<53 + 1}[rng.Intn(6)])
		case relation.KindFloat:
			vals[i] = relation.NewFloat([]float64{0, 0.5, -2, 3, 1 << 53}[rng.Intn(5)])
		case relation.KindString:
			vals[i] = relation.NewString([]string{"", "x", "y"}[rng.Intn(3)])
		case relation.KindBool:
			vals[i] = relation.NewBool(rng.Intn(2) == 1)
		case relation.KindImage:
			vals[i] = relation.NewImage([]string{"", "x"}[rng.Intn(2)])
		}
	}
	return relation.Tuple{Schema: fuzzSchema, Values: vals}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzCompile checks that compiled programs agree with the reference tree
// walker, on value and on error, for call-free expressions over random
// rows: as values, and as predicates in a boolean context.
func FuzzCompile(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 4+rng.Intn(40))
		rng.Read(data)
		f.Add(data, rng.Int63())
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		e := (&exprGen{data: data}).expr(5)
		value := compileValue(e, fuzzSchema)
		pred := compilePredicate(e, fuzzSchema)
		rows := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			row := fuzzRow(rows)
			want, wantErr := refEval(e, row, nil)
			got, err := value(row.Values, nil)
			if errText(err) != errText(wantErr) {
				t.Fatalf("%v over %v: compiled error %q, reference %q", e, row, errText(err), errText(wantErr))
			}
			if err == nil && got.EncodeKey() != want.EncodeKey() {
				t.Fatalf("%v over %v: compiled %v (%v), reference %v (%v)", e, row, got, got.Kind(), want, want.Kind())
			}
			ok, err := pred(row.Values, nil)
			if errText(err) != errText(wantErr) {
				t.Fatalf("%v over %v: predicate error %q, reference %q", e, row, errText(err), errText(wantErr))
			}
			if err == nil && ok != want.Truthy() {
				t.Fatalf("%v over %v: predicate %v, reference truthiness %v", e, row, ok, want.Truthy())
			}
		}
	})
}

// A call compiles to its argument programs and key: it reads the value
// resolved under its key, projects a field, and fails when unresolved.
func TestCompiledCallReadsResolvedValue(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "c.name", Kind: relation.KindString})
	row := []relation.Value{relation.NewString("Acme")}
	call := &qlang.Call{Name: "findCEO", Args: []qlang.Expr{&qlang.ColumnRef{Name: "name"}}, Field: "CEO"}
	bc := compiler{s}.call(call)
	key, args, err := bc.eval(row)
	if err != nil || len(args) != 1 || args[0].Str() != "Acme" {
		t.Fatalf("eval = %q %v %v", key, args, err)
	}
	wantKey, err := refCallKey(call, relation.Tuple{Schema: s, Values: row})
	if err != nil || key != wantKey {
		t.Fatalf("key %q, reference %q (%v)", key, wantKey, err)
	}
	resolved := map[string]relation.Value{key: relation.NewTuple(relation.Field{Name: "CEO", Value: relation.NewString("Jane")})}
	got, err := compileValue(call, s)(row, resolved)
	if err != nil || got.Str() != "Jane" {
		t.Fatalf("field projection = %v, %v", got, err)
	}
	_, err = compileValue(call, s)(row, nil)
	_, wantErr := refEval(call, relation.Tuple{Schema: s, Values: row}, nil)
	if errText(err) != errText(wantErr) || err == nil {
		t.Fatalf("unresolved call error %q, reference %q", errText(err), errText(wantErr))
	}
}
