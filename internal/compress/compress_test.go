package compress

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDictionaryBasic(t *testing.T) {
	d := BuildDictionary([]string{"cherry", "apple", "banana", "apple"})
	if d.Size() != 3 {
		t.Fatalf("Size = %d, want 3", d.Size())
	}
	// Order-preserving: codes follow sorted order.
	ca, _ := d.Code("apple")
	cb, _ := d.Code("banana")
	cc, _ := d.Code("cherry")
	if !(ca < cb && cb < cc) {
		t.Errorf("codes not order-preserving: %d %d %d", ca, cb, cc)
	}
	if d.Value(ca) != "apple" {
		t.Error("Value round-trip")
	}
	if _, ok := d.Code("durian"); ok {
		t.Error("absent value should not have a code")
	}
}

func TestDictionaryEncodeDecode(t *testing.T) {
	vals := []string{"b", "a", "c", "a", "b"}
	d := BuildDictionary(vals)
	codes, ok := d.Encode(vals)
	if !ok {
		t.Fatal("Encode failed")
	}
	if got := d.Decode(codes); !reflect.DeepEqual(got, vals) {
		t.Errorf("round-trip = %v, want %v", got, vals)
	}
	if _, ok := d.Encode([]string{"zzz"}); ok {
		t.Error("Encode of absent value should fail")
	}
}

func TestDictionaryBounds(t *testing.T) {
	d := BuildDictionary([]string{"b", "d", "f"})
	if got := d.LowerBound("c"); got != 1 {
		t.Errorf("LowerBound(c) = %d, want 1 (code of d)", got)
	}
	if got := d.LowerBound("d"); got != 1 {
		t.Errorf("LowerBound(d) = %d, want 1", got)
	}
	if got := d.UpperBound("d"); got != 2 {
		t.Errorf("UpperBound(d) = %d, want 2", got)
	}
	if got := d.LowerBound("z"); got != d.Size() {
		t.Errorf("LowerBound(z) = %d, want Size", got)
	}
}

func TestDictionaryOrderPreservingProperty(t *testing.T) {
	f := func(raw []string) bool {
		if len(raw) == 0 {
			return true
		}
		d := BuildDictionary(raw)
		for i := 0; i < len(raw); i++ {
			for j := 0; j < len(raw); j++ {
				ci, _ := d.Code(raw[i])
				cj, _ := d.Code(raw[j])
				if (raw[i] < raw[j]) != (ci < cj) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIntDictionary(t *testing.T) {
	vals := []int64{100, -5, 100, 42}
	d := BuildIntDictionary(vals)
	if d.Size() != 3 {
		t.Fatalf("Size = %d", d.Size())
	}
	codes, ok := d.Encode(vals)
	if !ok {
		t.Fatal("Encode failed")
	}
	if got := d.Decode(codes); !reflect.DeepEqual(got, vals) {
		t.Errorf("round-trip = %v", got)
	}
	c1, _ := d.Code(-5)
	c2, _ := d.Code(42)
	c3, _ := d.Code(100)
	if !(c1 < c2 && c2 < c3) {
		t.Error("int codes not order-preserving")
	}
	if d.LowerBound(0) != 1 || d.UpperBound(42) != 2 {
		t.Error("int dictionary bounds")
	}
	if _, ok := d.Encode([]int64{7}); ok {
		t.Error("absent int should fail Encode")
	}
}

func TestBitWidthFor(t *testing.T) {
	cases := map[uint64]uint{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 1 << 63: 64}
	for in, want := range cases {
		if got := BitWidthFor(in); got != want {
			t.Errorf("BitWidthFor(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPackRoundTripWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []uint{1, 3, 7, 8, 13, 31, 33, 63, 64} {
		n := 257
		vals := make([]uint64, n)
		var mask uint64
		if width == 64 {
			mask = ^uint64(0)
		} else {
			mask = (1 << width) - 1
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		p := Pack(vals, width)
		if p.Len() != n {
			t.Fatalf("width %d: Len = %d", width, p.Len())
		}
		for i, want := range vals {
			if got := p.Get(i); got != want {
				t.Fatalf("width %d: Get(%d) = %d, want %d", width, i, got, want)
			}
		}
		if got := p.Unpack(nil); !reflect.DeepEqual(got, vals) {
			t.Fatalf("width %d: Unpack mismatch", width)
		}
	}
}

func TestPackQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]uint64, len(raw))
		var max uint64
		for i, v := range raw {
			vals[i] = uint64(v)
			if uint64(v) > max {
				max = uint64(v)
			}
		}
		p := Pack(vals, BitWidthFor(max))
		return reflect.DeepEqual(p.Unpack(nil), vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackScans(t *testing.T) {
	vals := []uint64{5, 2, 5, 9, 5, 1}
	p := Pack(vals, BitWidthFor(9))
	if got := p.ScanEq(5, nil); !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Errorf("ScanEq = %v", got)
	}
	if got := p.ScanRange(2, 6, nil); !reflect.DeepEqual(got, []int{0, 1, 2, 4}) {
		t.Errorf("ScanRange = %v", got)
	}
}

func TestPackSizeBytes(t *testing.T) {
	p := Pack(make([]uint64, 64), 8) // 64 values * 8 bits = 512 bits = 8 words
	if p.SizeBytes() != 64 {
		t.Errorf("SizeBytes = %d, want 64", p.SizeBytes())
	}
}

func TestFORRoundTrip(t *testing.T) {
	vals := []int64{1000, 1005, 999, 1100, 1000}
	f := FOREncode(vals)
	if f.Len() != len(vals) {
		t.Fatalf("Len = %d", f.Len())
	}
	if got := f.Decode(nil); !reflect.DeepEqual(got, vals) {
		t.Errorf("Decode = %v", got)
	}
	for i, want := range vals {
		if got := f.Get(i); got != want {
			t.Errorf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestFORNegativeAndEmpty(t *testing.T) {
	vals := []int64{-50, -10, -50}
	f := FOREncode(vals)
	if got := f.Decode(nil); !reflect.DeepEqual(got, vals) {
		t.Errorf("negative Decode = %v", got)
	}
	e := FOREncode(nil)
	if e.Len() != 0 {
		t.Error("empty FOR")
	}
}

func TestFORScanRange(t *testing.T) {
	vals := []int64{10, 20, 30, 40, 50}
	f := FOREncode(vals)
	if got := f.ScanRange(20, 45, nil); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("ScanRange = %v", got)
	}
	if got := f.ScanRange(100, 200, nil); len(got) != 0 {
		t.Errorf("out-of-frame ScanRange = %v", got)
	}
	if got := f.ScanRange(-100, 15, nil); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("below-base ScanRange = %v", got)
	}
	if got := f.ScanRange(30, 30, nil); len(got) != 0 {
		t.Errorf("empty range = %v", got)
	}
}

func TestFORQuick(t *testing.T) {
	f := func(vals []int64) bool {
		// Constrain to a window so deltas fit comfortably.
		for i := range vals {
			vals[i] %= 1 << 40
		}
		enc := FOREncode(vals)
		return reflect.DeepEqual(enc.Decode(nil), vals) || len(vals) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFORCompressionRatio(t *testing.T) {
	// Timestamps in a narrow window: should pack far below 8 bytes/value.
	vals := make([]int64, 4096)
	base := int64(1_700_000_000_000_000)
	for i := range vals {
		vals[i] = base + int64(i)
	}
	f := FOREncode(vals)
	if f.SizeBytes() > len(vals)*2 {
		t.Errorf("FOR on clustered timestamps uses %d bytes for %d values", f.SizeBytes(), len(vals))
	}
}

func TestDictRangePredicateViaCodes(t *testing.T) {
	// End-to-end: evaluate a string range predicate purely on codes.
	words := []string{"delta", "alpha", "echo", "bravo", "charlie", "bravo"}
	d := BuildDictionary(words)
	codes, _ := d.Encode(words)
	p := Pack(codes, BitWidthFor(uint64(d.Size()-1)))
	lo := uint64(d.LowerBound("bravo"))
	hi := uint64(d.UpperBound("delta"))
	sel := p.ScanRange(lo, hi, nil)
	want := []int{}
	for i, w := range words {
		if w >= "bravo" && w <= "delta" {
			want = append(want, i)
		}
	}
	sort.Ints(sel)
	if !reflect.DeepEqual(sel, want) {
		t.Errorf("code-domain range scan = %v, want %v", sel, want)
	}
}
