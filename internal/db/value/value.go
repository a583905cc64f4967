// Package value defines the datum type system of the database kernel:
// the typed values that flow through the executor, with comparison,
// hashing and serialization. The TPC-D schema needs integers, decimals
// (represented as float64, as PostgreSQL 6.3's float8), fixed and
// variable strings, and dates (days since epoch).
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates the supported column types.
type Type uint8

const (
	// Int is a 64-bit signed integer (covers int4/int8 keys).
	Int Type = iota
	// Float is a float8 (TPC-D decimal columns).
	Float
	// Str is a variable-length string (char/varchar/text).
	Str
	// Date is a day count since 1970-01-01.
	Date
	// Bool is a boolean (intermediate predicate results).
	Bool
	// Null is the type of the SQL NULL value.
	Null
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "integer"
	case Float:
		return "float"
	case Str:
		return "varchar"
	case Date:
		return "date"
	case Bool:
		return "boolean"
	case Null:
		return "null"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Value is one datum. The representation is a tagged union: I holds
// Int/Date/Bool (0 or 1), F holds Float, S holds Str.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// NewInt returns an integer datum.
func NewInt(v int64) Value { return Value{T: Int, I: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Value { return Value{T: Float, F: v} }

// NewStr returns a string datum.
func NewStr(v string) Value { return Value{T: Str, S: v} }

// NewDate returns a date datum from a day number.
func NewDate(days int64) Value { return Value{T: Date, I: days} }

// NewBool returns a boolean datum.
func NewBool(v bool) Value {
	if v {
		return Value{T: Bool, I: 1}
	}
	return Value{T: Bool}
}

// NewNull returns the NULL datum.
func NewNull() Value { return Value{T: Null} }

// Clone returns v with a copy of its string bytes of its own: unlike v,
// the copy stays valid once the bytes v views (StrView) are reused.
func Clone(v Value) Value {
	if v.T == Str {
		v.S = strings.Clone(v.S)
	}
	return v
}

// CloneStrs gives every string in vals a copy of its bytes, all of them
// in one new allocation, which it returns (nil when vals hold no
// non-empty string).
func CloneStrs(vals []Value) []byte {
	n := 0
	for _, v := range vals {
		if v.T == Str {
			n += len(v.S)
		}
	}
	if n == 0 {
		return nil
	}
	buf := make([]byte, n)
	off := 0
	for i, v := range vals {
		if v.T == Str && v.S != "" {
			end := off + copy(buf[off:], v.S)
			vals[i].S = StrView(buf[off:end:end]).S
			off = end
		}
	}
	return buf
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == Null }

// Bool returns the boolean payload (false for anything non-true).
func (v Value) Bool() bool { return v.T == Bool && v.I != 0 }

// String formats the datum for result output.
func (v Value) String() string {
	switch v.T {
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'f', 2, 64)
	case Str:
		return v.S
	case Date:
		return FormatDate(v.I)
	case Bool:
		if v.I != 0 {
			return "t"
		}
		return "f"
	case Null:
		return "NULL"
	}
	return "?"
}

// Compare orders two values of the same type family: -1, 0 or +1.
// NULL sorts before everything (PostgreSQL 6.3 semantics for sort).
// Int and Date compare numerically with each other; comparing Float
// with Int coerces the Int.
func Compare(a, b Value) int {
	if a.T == Null || b.T == Null {
		switch {
		case a.T == Null && b.T == Null:
			return 0
		case a.T == Null:
			return -1
		default:
			return 1
		}
	}
	if a.T == Float || b.T == Float {
		af, bf := a.asFloat(), b.asFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.T == Str {
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	}
	// Int, Date, Bool: integer payloads.
	switch {
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	default:
		return 0
	}
}

func (v Value) asFloat() float64 {
	if v.T == Float {
		return v.F
	}
	return float64(v.I)
}

// Equal reports datum equality under Compare semantics.
func Equal(a, b Value) bool { return a.T != Null && b.T != Null && Compare(a, b) == 0 }

// Hash returns a 64-bit hash of the datum (FNV-1a over the canonical
// payload), used by hash indices, hash joins and hash aggregation.
func Hash(v Value) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mix(byte(v.T))
	switch v.T {
	case Str:
		for i := 0; i < len(v.S); i++ {
			mix(v.S[i])
		}
	case Float:
		// Hash floats by their decimal representation to keep
		// -0.0 == 0.0 consistent with Compare.
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
	default:
		u := uint64(v.I)
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	}
	return h
}

// daysPerMonth in a non-leap year.
var daysPerMonth = [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// MakeDate converts a calendar date to a day number since 1970-01-01.
func MakeDate(year, month, day int) int64 {
	var days int64
	if year >= 1970 {
		for y := 1970; y < year; y++ {
			days += 365
			if isLeap(y) {
				days++
			}
		}
	} else {
		for y := year; y < 1970; y++ {
			days -= 365
			if isLeap(y) {
				days--
			}
		}
	}
	for m := 1; m < month; m++ {
		days += int64(daysPerMonth[m-1])
		if m == 2 && isLeap(year) {
			days++
		}
	}
	return days + int64(day-1)
}

// FormatDate renders a day number as YYYY-MM-DD.
func FormatDate(days int64) string {
	y := 1970
	for {
		ylen := int64(365)
		if isLeap(y) {
			ylen++
		}
		if days >= ylen {
			days -= ylen
			y++
		} else if days < 0 {
			y--
			ylen = 365
			if isLeap(y) {
				ylen++
			}
			days += ylen
		} else {
			break
		}
	}
	m := 1
	for {
		mlen := int64(daysPerMonth[m-1])
		if m == 2 && isLeap(y) {
			mlen++
		}
		if days >= mlen {
			days -= mlen
			m++
		} else {
			break
		}
	}
	return fmt.Sprintf("%04d-%02d-%02d", y, m, int(days)+1)
}

// ParseDate parses YYYY-MM-DD into a day number.
func ParseDate(s string) (int64, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("value: bad date %q", s)
	}
	y, err1 := strconv.Atoi(s[0:4])
	m, err2 := strconv.Atoi(s[5:7])
	d, err3 := strconv.Atoi(s[8:10])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("value: bad date %q", s)
	}
	return MakeDate(y, m, d), nil
}
