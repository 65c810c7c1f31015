// Package relation implements Qurk's storage engine: typed values,
// schemas, tuples, in-memory tables and pollable result tables.
//
// The data model follows the paper's §3: it is relational, except that
// attributes produced by human workers hold a *list* of answers (one per
// assignment) which user-defined aggregates reduce to a single value.
package relation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the value types Qurk understands.
type Kind int

// Value kinds. KindImage is a reference (identifier/URL) to an image shown
// to workers; the engine never interprets image bytes. KindList holds
// multiple worker answers for one HIT. KindTuple is a nested record, used
// for UDFs such as findCEO that RETURN a tuple.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindImage
	KindList
	KindTuple
)

// String returns the type name as written in the TASK language.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "Null"
	case KindString:
		return "String"
	case KindInt:
		return "Int"
	case KindFloat:
		return "Float"
	case KindBool:
		return "Bool"
	case KindImage:
		return "Image"
	case KindList:
		return "List"
	case KindTuple:
		return "Tuple"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a TASK-language type name ("String", "Image[]"...)
// into a Kind. The "[]" suffix maps to KindList.
func ParseKind(s string) (Kind, error) {
	if strings.HasSuffix(s, "[]") {
		return KindList, nil
	}
	switch strings.ToLower(s) {
	case "string", "text":
		return KindString, nil
	case "int", "integer":
		return KindInt, nil
	case "float", "double":
		return KindFloat, nil
	case "bool", "boolean":
		return KindBool, nil
	case "image":
		return KindImage, nil
	case "tuple":
		return KindTuple, nil
	case "null":
		return KindNull, nil
	default:
		return KindNull, fmt.Errorf("relation: unknown type %q", s)
	}
}

// Field is one named component of a tuple-valued Value.
type Field struct {
	Name  string
	Value Value
}

// Value is a dynamically typed datum. The zero Value is NULL.
// Values are immutable once constructed; sharing is safe.
type Value struct {
	kind   Kind
	str    string // KindString, KindImage
	num    int64  // KindInt
	real   float64
	truth  bool
	list   []Value
	fields []Field // KindTuple, sorted by Name
}

// Null is the NULL value.
var Null = Value{}

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: KindString, str: s} }

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, num: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, real: f} }

// NewBool returns a boolean value.
func NewBool(b bool) Value { return Value{kind: KindBool, truth: b} }

// NewImage returns an image-reference value.
func NewImage(ref string) Value { return Value{kind: KindImage, str: ref} }

// NewList returns a list value holding the given elements.
// The slice is copied so later mutation by the caller cannot alias.
func NewList(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return Value{kind: KindList, list: cp}
}

// NewTuple returns a tuple value with the given fields. Field names must
// be unique; they are stored sorted so encoding is canonical.
func NewTuple(fields ...Field) Value {
	cp := make([]Field, len(fields))
	copy(cp, fields)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Name < cp[j].Name })
	return Value{kind: KindTuple, fields: cp}
}

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload of a String or Image value.
func (v Value) Str() string { return v.str }

// Int returns the integer payload; Float values are truncated.
func (v Value) Int() int64 {
	if v.kind == KindFloat {
		return int64(v.real)
	}
	return v.num
}

// Float returns the numeric payload as a float64.
func (v Value) Float() float64 {
	if v.kind == KindInt {
		return float64(v.num)
	}
	return v.real
}

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.truth }

// List returns the elements of a list value. Callers must not mutate the
// returned slice.
func (v Value) List() []Value { return v.list }

// Len returns the number of elements of a list value, or 0.
func (v Value) Len() int { return len(v.list) }

// Fields returns the components of a tuple value, sorted by name.
// Callers must not mutate the returned slice.
func (v Value) Fields() []Field { return v.fields }

// Field returns the named component of a tuple value, or NULL.
func (v Value) Field(name string) Value {
	i := sort.Search(len(v.fields), func(i int) bool { return v.fields[i].Name >= name })
	if i < len(v.fields) && v.fields[i].Name == name {
		return v.fields[i].Value
	}
	return Null
}

// Truthy reports whether the value counts as true in a WHERE clause.
// NULL is false; numbers are true when non-zero; strings when non-empty;
// lists reduce by majority vote over their boolean elements.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.truth
	case KindInt:
		return v.num != 0
	case KindFloat:
		return v.real != 0
	case KindString, KindImage:
		return v.str != ""
	case KindList:
		yes := 0
		for _, e := range v.list {
			if e.Truthy() {
				yes++
			}
		}
		return yes*2 > len(v.list)
	default:
		return false
	}
}

// Compare orders two values. NULL sorts first; values of different kinds
// order by kind; numeric kinds compare numerically across Int/Float.
// Lists and tuples compare element-wise. The result is -1, 0 or +1.
func (v Value) Compare(o Value) int { return Compare(&v, &o) }

// Compare is Value.Compare over pointers: it orders two values in place,
// without copying them, and is the single comparison every ordering in
// the engine goes through. Two Ints compare exactly; an Int against a
// Float compares through float64.
func Compare(a, b *Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind == KindInt && b.kind == KindInt {
		return cmpOrdered(a.num, b.num)
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	if numeric(a.kind) && numeric(b.kind) {
		return cmpOrdered(a.Float(), b.Float())
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindString, KindImage:
		return strings.Compare(a.str, b.str)
	case KindBool:
		switch {
		case a.truth == b.truth:
			return 0
		case !a.truth:
			return -1
		default:
			return 1
		}
	case KindList:
		for i := 0; i < len(a.list) && i < len(b.list); i++ {
			if c := Compare(&a.list[i], &b.list[i]); c != 0 {
				return c
			}
		}
		return cmpOrdered(len(a.list), len(b.list))
	case KindTuple:
		for i := 0; i < len(a.fields) && i < len(b.fields); i++ {
			if c := strings.Compare(a.fields[i].Name, b.fields[i].Name); c != 0 {
				return c
			}
			if c := Compare(&a.fields[i].Value, &b.fields[i].Value); c != 0 {
				return c
			}
		}
		return cmpOrdered(len(a.fields), len(b.fields))
	default:
		return 0
	}
}

// cmpOrdered is cmp.Compare without its NaN ordering: NaN compares equal
// to everything, as the float comparison always has here.
func cmpOrdered[T int | int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values are identical in kind and payload
// (unlike Compare, Int(1) and Float(1.0) are not Equal).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	return v.Compare(o) == 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.str
	case KindImage:
		return "img:" + v.str
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.real, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.truth)
	case KindList:
		parts := make([]string, len(v.list))
		for i, e := range v.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindTuple:
		parts := make([]string, len(v.fields))
		for i, f := range v.fields {
			parts[i] = f.Name + ": " + f.Value.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	default:
		return "?"
	}
}

// Encode appends a canonical, injective byte encoding of the value to dst.
// It is used for task-cache keys and grouping, so two values encode
// equally iff Equal reports true.
func (v Value) Encode(dst []byte) []byte {
	dst = append(dst, byte('0'+int(v.kind)))
	switch v.kind {
	case KindString, KindImage:
		dst = strconv.AppendInt(dst, int64(len(v.str)), 10)
		dst = append(dst, ':')
		dst = append(dst, v.str...)
	case KindInt:
		dst = strconv.AppendInt(dst, v.num, 10)
	case KindFloat:
		dst = strconv.AppendFloat(dst, v.real, 'g', -1, 64)
	case KindBool:
		if v.truth {
			dst = append(dst, 't')
		} else {
			dst = append(dst, 'f')
		}
	case KindList:
		dst = strconv.AppendInt(dst, int64(len(v.list)), 10)
		for _, e := range v.list {
			dst = append(dst, ';')
			dst = e.Encode(dst)
		}
	case KindTuple:
		dst = strconv.AppendInt(dst, int64(len(v.fields)), 10)
		for _, f := range v.fields {
			dst = append(dst, ';')
			dst = strconv.AppendInt(dst, int64(len(f.Name)), 10)
			dst = append(dst, ':')
			dst = append(dst, f.Name...)
			dst = f.Value.Encode(dst)
		}
	}
	dst = append(dst, '|')
	return dst
}

// EncodeKey returns the canonical encoding as a string, suitable as a map
// key.
func (v Value) EncodeKey() string { return string(v.Encode(nil)) }

// ParseValue converts a textual literal into a value of the given kind.
func ParseValue(kind Kind, text string) (Value, error) {
	switch kind {
	case KindNull:
		return Null, nil
	case KindString:
		return NewString(text), nil
	case KindImage:
		return NewImage(text), nil
	case KindInt:
		i, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return Null, fmt.Errorf("relation: parse int %q: %v", text, err)
		}
		return NewInt(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return Null, fmt.Errorf("relation: parse float %q: %v", text, err)
		}
		return NewFloat(f), nil
	case KindBool:
		b, err := strconv.ParseBool(strings.TrimSpace(strings.ToLower(text)))
		if err != nil {
			return Null, fmt.Errorf("relation: parse bool %q: %v", text, err)
		}
		return NewBool(b), nil
	default:
		return Null, fmt.Errorf("relation: cannot parse literal of kind %v", kind)
	}
}
