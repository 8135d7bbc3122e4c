// Package compress implements the columnar encodings the tutorial
// attributes to HANA, DB2 BLU, and Oracle Database In-Memory: an
// order-preserving dictionary, fixed-width bit-packing, and
// frame-of-reference integer coding.
//
// All encoders are deterministic and all codecs round-trip exactly; the
// property tests in this package check both. Encoded forms are designed
// for scan-friendliness: predicates can usually be evaluated on codes
// without decoding (see the order-preserving property on Dictionary).
package compress

import (
	"sort"
)

// Dictionary is an order-preserving string dictionary: codes are assigned
// in sorted value order, so for any two values a, b:
//
//	a < b  ⇔  Code(a) < Code(b)
//
// This lets range predicates be evaluated directly on the packed code
// stream, the key trick behind HANA/BLU/DBIM dictionary scans.
type Dictionary struct {
	values []string       // sorted unique values; code = index
	index  map[string]int // value -> code
}

// BuildDictionary constructs a dictionary over the distinct values of the
// input (the input itself is not retained).
func BuildDictionary(vals []string) *Dictionary {
	seen := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		seen[v] = struct{}{}
	}
	uniq := make([]string, 0, len(seen))
	for v := range seen {
		uniq = append(uniq, v)
	}
	sort.Strings(uniq)
	idx := make(map[string]int, len(uniq))
	for i, v := range uniq {
		idx[v] = i
	}
	return &Dictionary{values: uniq, index: idx}
}

// Size returns the number of distinct values.
func (d *Dictionary) Size() int { return len(d.values) }

// Code returns the code for a value and whether it is present.
func (d *Dictionary) Code(v string) (int, bool) {
	c, ok := d.index[v]
	return c, ok
}

// Value returns the value for a code. It panics on out-of-range codes,
// which indicate corruption.
func (d *Dictionary) Value(code int) string { return d.values[code] }

// Encode maps values to codes. Every value must be in the dictionary.
func (d *Dictionary) Encode(vals []string) ([]uint64, bool) {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		c, ok := d.index[v]
		if !ok {
			return nil, false
		}
		out[i] = uint64(c)
	}
	return out, true
}

// Decode maps codes back to values.
func (d *Dictionary) Decode(codes []uint64) []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = d.values[c]
	}
	return out
}

// LowerBound returns the smallest code whose value is >= v, or Size() if
// none. Together with UpperBound it translates a value-range predicate
// into a code-range predicate.
func (d *Dictionary) LowerBound(v string) int {
	return sort.SearchStrings(d.values, v)
}

// UpperBound returns the smallest code whose value is > v, or Size().
func (d *Dictionary) UpperBound(v string) int {
	return sort.Search(len(d.values), func(i int) bool { return d.values[i] > v })
}

// IntDictionary is an order-preserving dictionary over int64 values, used
// when the distinct count is far below the value range (e.g. status
// codes, warehouse ids).
type IntDictionary struct {
	values []int64
	index  map[int64]int
}

// BuildIntDictionary constructs an order-preserving int dictionary.
func BuildIntDictionary(vals []int64) *IntDictionary {
	seen := make(map[int64]struct{}, len(vals))
	for _, v := range vals {
		seen[v] = struct{}{}
	}
	uniq := make([]int64, 0, len(seen))
	for v := range seen {
		uniq = append(uniq, v)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	idx := make(map[int64]int, len(uniq))
	for i, v := range uniq {
		idx[v] = i
	}
	return &IntDictionary{values: uniq, index: idx}
}

// Size returns the number of distinct values.
func (d *IntDictionary) Size() int { return len(d.values) }

// Code returns the code for a value and whether it is present.
func (d *IntDictionary) Code(v int64) (int, bool) {
	c, ok := d.index[v]
	return c, ok
}

// Value returns the value for a code.
func (d *IntDictionary) Value(code int) int64 { return d.values[code] }

// Encode maps values to codes; ok is false if any value is absent.
func (d *IntDictionary) Encode(vals []int64) ([]uint64, bool) {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		c, ok := d.index[v]
		if !ok {
			return nil, false
		}
		out[i] = uint64(c)
	}
	return out, true
}

// Decode maps codes back to values.
func (d *IntDictionary) Decode(codes []uint64) []int64 {
	out := make([]int64, len(codes))
	for i, c := range codes {
		out[i] = d.values[c]
	}
	return out
}

// LowerBound returns the smallest code whose value is >= v.
func (d *IntDictionary) LowerBound(v int64) int {
	return sort.Search(len(d.values), func(i int) bool { return d.values[i] >= v })
}

// UpperBound returns the smallest code whose value is > v.
func (d *IntDictionary) UpperBound(v int64) int {
	return sort.Search(len(d.values), func(i int) bool { return d.values[i] > v })
}
