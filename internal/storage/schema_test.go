package storage

import (
	"testing"
	"testing/quick"
)

func sampleSchema() *Schema {
	return NewSchema(1, "sample", []Column{
		{Name: "id", Type: Int64},
		{Name: "qty", Type: Int32},
		{Name: "price", Type: Float64},
		{Name: "name", Type: String, Size: 16},
		{Name: "ts", Type: Time},
	}, []int{0})
}

func TestLayoutOffsets(t *testing.T) {
	s := sampleSchema()
	wantOffsets := []int{0, 8, 12, 20, 36}
	for i, w := range wantOffsets {
		if got := s.Offset(i); got != w {
			t.Errorf("Offset(%d) = %d, want %d", i, got, w)
		}
	}
	if s.TupleSize() != 44 {
		t.Errorf("TupleSize = %d, want 44", s.TupleSize())
	}
}

func TestAccessorsRoundTrip(t *testing.T) {
	s := sampleSchema()
	tup := s.NewTuple()
	s.PutInt64(tup, 0, -42)
	s.PutInt32(tup, 1, 7)
	s.PutFloat64(tup, 2, 3.25)
	s.PutString(tup, 3, "hello")
	s.PutInt64(tup, 4, 1234567890)

	if got := s.GetInt64(tup, 0); got != -42 {
		t.Errorf("GetInt64 = %d", got)
	}
	if got := s.GetInt32(tup, 1); got != 7 {
		t.Errorf("GetInt32 = %d", got)
	}
	if got := s.GetFloat64(tup, 2); got != 3.25 {
		t.Errorf("GetFloat64 = %v", got)
	}
	if got := s.GetString(tup, 3); got != "hello" {
		t.Errorf("GetString = %q", got)
	}
	if got := s.GetInt64(tup, 4); got != 1234567890 {
		t.Errorf("GetInt64(ts) = %d", got)
	}
}

func TestPutStringTruncatesAndPads(t *testing.T) {
	s := sampleSchema()
	tup := s.NewTuple()
	if got := s.GetString(tup, 3); got != "" {
		t.Errorf("all-NUL field = %q, want empty", got)
	}
	s.PutString(tup, 3, "this string is far too long for the field")
	if got := s.GetString(tup, 3); got != "this string is f" {
		t.Errorf("truncated string = %q", got)
	}
	s.PutString(tup, 3, "short")
	if got := s.GetString(tup, 3); got != "short" {
		t.Errorf("after overwrite with shorter value = %q (stale bytes not padded?)", got)
	}
}

// Property: int64/float64/string round-trips hold for arbitrary values.
func TestAccessorsProperty(t *testing.T) {
	s := sampleSchema()
	f := func(a int64, b int32, c float64, str string) bool {
		if c != c { // skip NaN: NaN != NaN by definition
			return true
		}
		tup := s.NewTuple()
		s.PutInt64(tup, 0, a)
		s.PutInt32(tup, 1, b)
		s.PutFloat64(tup, 2, c)
		if s.GetInt64(tup, 0) != a || s.GetInt32(tup, 1) != b || s.GetFloat64(tup, 2) != c {
			return false
		}
		// Strings round-trip when they fit and contain no NUL padding
		// ambiguity (no trailing NULs).
		if len(str) <= 16 && !hasNUL(str) && trailingTrim(str) == str {
			s.PutString(tup, 3, str)
			if s.GetString(tup, 3) != str {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func hasNUL(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			return true
		}
	}
	return false
}

func trailingTrim(s string) string {
	for len(s) > 0 && s[len(s)-1] == 0 {
		s = s[:len(s)-1]
	}
	return s
}

func TestInvalidSchemaPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("string without size", func() {
		NewSchema(3, "bad", []Column{{Name: "s", Type: String}}, nil)
	})
	mustPanic("duplicate column", func() {
		NewSchema(4, "bad", []Column{{Name: "a", Type: Int64}, {Name: "a", Type: Int32}}, nil)
	})
	mustPanic("key out of range", func() {
		NewSchema(5, "bad", []Column{{Name: "a", Type: Int64}}, []int{1})
	})
}
