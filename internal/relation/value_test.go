package relation

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "Null", KindString: "String", KindInt: "Int",
		KindFloat: "Float", KindBool: "Bool", KindImage: "Image",
		KindList: "List", KindTuple: "Tuple",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"String", KindString, true},
		{"string", KindString, true},
		{"Text", KindString, true},
		{"Int", KindInt, true},
		{"Integer", KindInt, true},
		{"Float", KindFloat, true},
		{"double", KindFloat, true},
		{"Bool", KindBool, true},
		{"Boolean", KindBool, true},
		{"Image", KindImage, true},
		{"Image[]", KindList, true},
		{"String[]", KindList, true},
		{"Tuple", KindTuple, true},
		{"Null", KindNull, true},
		{"Widget", KindNull, false},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if c.ok && err != nil {
			t.Errorf("ParseKind(%q): unexpected error %v", c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseKind(%q): expected error", c.in)
			}
			continue
		}
		if got != c.want {
			t.Errorf("ParseKind(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Fatal("zero Value must be NULL")
	}
	if v := NewString("hi"); v.Kind() != KindString || v.Str() != "hi" {
		t.Errorf("NewString: %v", v)
	}
	if v := NewInt(-7); v.Kind() != KindInt || v.Int() != -7 || v.Float() != -7 {
		t.Errorf("NewInt: %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 || v.Int() != 2 {
		t.Errorf("NewFloat: %v", v)
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Errorf("NewBool: %v", v)
	}
	if v := NewImage("x.png"); v.Kind() != KindImage || v.Str() != "x.png" {
		t.Errorf("NewImage: %v", v)
	}
	lst := NewList(NewInt(1), NewInt(2))
	if lst.Len() != 2 || lst.List()[1].Int() != 2 {
		t.Errorf("NewList: %v", lst)
	}
}

func TestNewListCopies(t *testing.T) {
	src := []Value{NewInt(1)}
	v := NewList(src...)
	src[0] = NewInt(99)
	if v.List()[0].Int() != 1 {
		t.Error("NewList must copy its input slice")
	}
}

func TestTupleValueFieldLookup(t *testing.T) {
	v := NewTuple(
		Field{Name: "Phone", Value: NewString("555")},
		Field{Name: "CEO", Value: NewString("Ada")},
	)
	if got := v.Field("CEO").Str(); got != "Ada" {
		t.Errorf("Field(CEO) = %q", got)
	}
	if got := v.Field("Phone").Str(); got != "555" {
		t.Errorf("Field(Phone) = %q", got)
	}
	if !v.Field("Missing").IsNull() {
		t.Error("missing field should be NULL")
	}
	// Fields are sorted by name for canonical encoding.
	fs := v.Fields()
	if fs[0].Name != "CEO" || fs[1].Name != "Phone" {
		t.Errorf("fields not sorted: %v", fs)
	}
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false},
		{NewBool(true), true},
		{NewBool(false), false},
		{NewInt(0), false},
		{NewInt(3), true},
		{NewFloat(0), false},
		{NewFloat(0.1), true},
		{NewString(""), false},
		{NewString("x"), true},
		{NewImage("i"), true},
		{NewList(NewBool(true), NewBool(true), NewBool(false)), true},
		{NewList(NewBool(true), NewBool(false)), false}, // tie -> false
		{NewList(), false},
		{NewTuple(), false},
	}
	for i, c := range cases {
		if got := c.v.Truthy(); got != c.want {
			t.Errorf("case %d: Truthy(%v) = %v, want %v", i, c.v, got, c.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Null, 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(2.5), 1},
		{NewFloat(2.5), NewInt(3), -1},
		{NewFloat(1), NewInt(1), 0}, // numeric cross-kind equality
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NewList(NewInt(1)), NewList(NewInt(1), NewInt(2)), -1},
		{NewList(NewInt(2)), NewList(NewInt(1), NewInt(5)), 1},
		{NewString("x"), NewImage("x"), -1}, // different kinds order by kind
		// Ints compare exactly, also where float64 cannot tell them apart.
		{NewInt(1<<53 + 1), NewInt(1 << 53), 1},
		{NewInt(1 << 53), NewInt(1<<53 + 1), -1},
		{NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1), 1},
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 0}, // mixed kinds compare as float64
	}
	for i, c := range cases {
		got := c.a.Compare(c.b)
		if sign(got) != c.want {
			t.Errorf("case %d: Compare(%v,%v) = %d, want sign %d", i, c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestEqualStrictKind(t *testing.T) {
	if NewInt(1).Equal(NewFloat(1)) {
		t.Error("Equal must be kind-strict; Compare is the numeric one")
	}
	if !NewInt(1).Equal(NewInt(1)) {
		t.Error("identical ints must be Equal")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewString("s"), "s"},
		{NewImage("pic"), "img:pic"},
		{NewInt(42), "42"},
		{NewFloat(1.5), "1.5"},
		{NewBool(true), "true"},
		{NewList(NewInt(1), NewString("a")), "[1, a]"},
		{NewTuple(Field{"a", NewInt(1)}, Field{"b", NewString("x")}), "(a: 1, b: x)"},
	}
	for i, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("case %d: String() = %q, want %q", i, got, c.want)
		}
	}
}

// randomValue builds an arbitrary Value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(8)
	if depth <= 0 && (k == int(KindList) || k == int(KindTuple)) {
		k = int(KindInt)
	}
	switch Kind(k) {
	case KindNull:
		return Null
	case KindString:
		return NewString(randomWord(r))
	case KindInt:
		return NewInt(int64(r.Intn(2000) - 1000))
	case KindFloat:
		return NewFloat(float64(r.Intn(2000)-1000) / 8)
	case KindBool:
		return NewBool(r.Intn(2) == 0)
	case KindImage:
		return NewImage(randomWord(r))
	case KindList:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return NewList(elems...)
	default:
		n := r.Intn(3)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = Field{Name: string(rune('a' + i)), Value: randomValue(r, depth-1)}
		}
		return NewTuple(fields...)
	}
}

func randomWord(r *rand.Rand) string {
	n := r.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + r.Intn(26)))
	}
	return b.String()
}

// Property: Encode is injective w.r.t. Compare equality, and
// self-comparison is always 0.
func TestEncodeInjectiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seedA, seedB int64) bool {
		a := randomValue(rand.New(rand.NewSource(seedA)), 3)
		b := randomValue(rand.New(rand.NewSource(seedB)), 3)
		sameEnc := a.EncodeKey() == b.EncodeKey()
		if a.Equal(b) != sameEnc && a.Kind() == b.Kind() {
			// Same kind: encoding equality must coincide with Equal.
			t.Logf("a=%v b=%v equal=%v enc=%v", a, b, a.Equal(b), sameEnc)
			return false
		}
		if a.Compare(a) != 0 {
			return false
		}
		_ = r
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and reflexive.
func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomValue(rand.New(rand.NewSource(seedA)), 3)
		b := randomValue(rand.New(rand.NewSource(seedB)), 3)
		return sign(a.Compare(b)) == -sign(b.Compare(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: for totally random triples, Compare is transitive in the <= sense.
func TestCompareTransitiveProperty(t *testing.T) {
	f := func(sa, sb, sc int64) bool {
		a := randomValue(rand.New(rand.NewSource(sa)), 2)
		b := randomValue(rand.New(rand.NewSource(sb)), 2)
		c := randomValue(rand.New(rand.NewSource(sc)), 2)
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	cases := []struct {
		kind Kind
		text string
		want Value
	}{
		{KindString, "hello", NewString("hello")},
		{KindImage, "a.png", NewImage("a.png")},
		{KindInt, " 42 ", NewInt(42)},
		{KindFloat, "2.5", NewFloat(2.5)},
		{KindBool, "true", NewBool(true)},
		{KindBool, "FALSE", NewBool(false)},
		{KindNull, "whatever", Null},
	}
	for _, c := range cases {
		got, err := ParseValue(c.kind, c.text)
		if err != nil {
			t.Errorf("ParseValue(%v,%q): %v", c.kind, c.text, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseValue(%v,%q) = %v, want %v", c.kind, c.text, got, c.want)
		}
	}
	if _, err := ParseValue(KindInt, "xx"); err == nil {
		t.Error("expected error for bad int")
	}
	if _, err := ParseValue(KindFloat, "xx"); err == nil {
		t.Error("expected error for bad float")
	}
	if _, err := ParseValue(KindBool, "xx"); err == nil {
		t.Error("expected error for bad bool")
	}
	if _, err := ParseValue(KindList, "1,2"); err == nil {
		t.Error("expected error for unparseable kind")
	}
}

func TestEncodeDistinguishesShapes(t *testing.T) {
	// Classic injectivity traps: concatenation ambiguity.
	a := NewList(NewString("ab"), NewString("c"))
	b := NewList(NewString("a"), NewString("bc"))
	if a.EncodeKey() == b.EncodeKey() {
		t.Error("list encodings collide across element boundaries")
	}
	c := NewString("12")
	d := NewInt(12)
	if c.EncodeKey() == d.EncodeKey() {
		t.Error("string/int encodings collide")
	}
}
