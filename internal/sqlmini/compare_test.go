package sqlmini

import (
	"math"
	"strings"
	"testing"
	"time"
)

// compareRef is Compare as it was before the in-place core: the
// by-value general rules for every pair, no fast paths. compare must
// agree with it on (cmp, ok) for every input.
func compareRef(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	at, bt := a.Type(), b.Type()
	switch {
	case numericType(at) && numericType(bt):
		if at == TypeDouble || bt == TypeDouble {
			return cmpFloat(a.Float(), b.Float()), true
		}
		return cmpInt(a.Int(), b.Int()), true
	case at == TypeTimestamp || bt == TypeTimestamp:
		ta, tb := a.Time(), b.Time()
		switch {
		case ta.Before(tb):
			return -1, true
		case ta.After(tb):
			return 1, true
		default:
			return 0, true
		}
	case at == TypeBlob && bt == TypeBlob:
		return strings.Compare(string(a.b), string(b.b)), true
	default:
		if numericType(at) || numericType(bt) {
			return cmpFloat(a.Float(), b.Float()), true
		}
		return strings.Compare(a.Str(), b.Str()), true
	}
}

// monoBase carries a monotonic clock reading; time.Unix values do not.
var monoBase = time.Now()

func compareCorpus() []Value {
	integer := func(i int64) Value { return Value{typ: TypeInteger, i: i, isSet: true} }
	return []Value{
		Null,
		NewInt(-3), NewInt(0), NewInt(2), NewInt(10), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		integer(2), integer(-7),
		NewBool(false), NewBool(true),
		NewFloat(2), NewFloat(2.5), NewFloat(-0.0), NewFloat(math.NaN()),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewString(""), NewString("a"), NewString("b"), NewString("10"), NewString(" 7 "),
		NewString("2.5"), NewString("true"), NewString("2024-01-01T00:00:00Z"), NewString("NaN"),
		NewBytes(nil), NewBytes([]byte("aa")), NewBytes([]byte("ab")), NewBytes([]byte("10")),
		NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)),
		NewTime(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)),
		NewTime(time.Time{}), NewTime(time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)), // outside UnixNano's range
		NewTime(monoBase), NewTime(monoBase.Add(time.Nanosecond)),
		NewTime(monoBase.Round(0)), // same instant, monotonic reading stripped
		NewTime(monoBase.In(time.FixedZone("x", 3600))),
	}
}

// TestCompareMatchesReference checks the in-place compare, and the
// Compare wrapper over it, against the reference on every ordered pair
// of a corpus spanning each type, NULL, NaN and infinities, numeric
// text against numbers, and timestamps with and without a monotonic
// reading.
func TestCompareMatchesReference(t *testing.T) {
	vals := compareCorpus()
	for _, a := range vals {
		for _, b := range vals {
			wc, wok := compareRef(a, b)
			if c, ok := compare(&a, &b); c != wc || ok != wok {
				t.Errorf("compare(%v %v, %v %v) = (%d, %v), reference (%d, %v)",
					a.Type(), a, b.Type(), b, c, ok, wc, wok)
			}
			if c, ok := Compare(a, b); c != wc || ok != wok {
				t.Errorf("Compare(%v, %v) = (%d, %v), reference (%d, %v)", a, b, c, ok, wc, wok)
			}
		}
	}
}

// fuzzValue builds a typed value from fuzz inputs; kind selects the
// type (including NULL and a timestamp with a monotonic reading).
func fuzzValue(kind uint8, i int64, f float64, s string) Value {
	switch kind % 11 {
	case 0:
		return Null
	case 1:
		return NewInt(i)
	case 2:
		return Value{typ: TypeInteger, i: i, isSet: true}
	case 3:
		return NewBool(i&1 == 1)
	case 4:
		return NewFloat(f)
	case 5:
		return NewString(s)
	case 6:
		return NewBytes([]byte(s))
	case 7:
		return NewTime(time.Unix(0, i).UTC())
	case 8:
		return NewTime(monoBase.Add(time.Duration(i % int64(1<<40))))
	case 9:
		return NewTime(time.Unix(i, 0).UTC()) // spans years UnixNano cannot
	default:
		return NewString(s) // numeric-looking text is the interesting case
	}
}

// FuzzCompare asserts that the in-place compare agrees with the
// by-value reference on (cmp, ok) for arbitrary typed pairs. The seed
// corpus below replays in every plain `go test`.
func FuzzCompare(f *testing.F) {
	f.Add(uint8(1), int64(3), 0.0, "", uint8(1), int64(4), 0.0, "")
	f.Add(uint8(1), int64(9), 0.0, "", uint8(5), int64(0), 0.0, "10")
	f.Add(uint8(4), int64(0), math.NaN(), "", uint8(4), int64(0), 1.0, "")
	f.Add(uint8(4), int64(0), math.NaN(), "", uint8(10), int64(0), 0.0, "NaN")
	f.Add(uint8(3), int64(1), 0.0, "", uint8(2), int64(1), 0.0, "")
	f.Add(uint8(7), int64(5), 0.0, "", uint8(8), int64(5), 0.0, "")
	f.Add(uint8(8), int64(-5), 0.0, "", uint8(8), int64(5), 0.0, "")
	f.Add(uint8(7), int64(0), 0.0, "", uint8(5), int64(0), 0.0, "1970-01-01T00:00:00Z")
	f.Add(uint8(6), int64(0), 0.0, "ab", uint8(6), int64(0), 0.0, "aa")
	f.Add(uint8(6), int64(0), 0.0, "7", uint8(1), int64(7), 0.0, "")
	f.Add(uint8(9), int64(1)<<40, 0.0, "", uint8(9), int64(-1)<<40, 0.0, "")
	f.Add(uint8(0), int64(0), 0.0, "", uint8(1), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		a, b := fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb)
		wc, wok := compareRef(a, b)
		if c, ok := compare(&a, &b); c != wc || ok != wok {
			t.Fatalf("compare(%v %v, %v %v) = (%d, %v), reference (%d, %v)",
				a.Type(), a, b.Type(), b, c, ok, wc, wok)
		}
	})
}
