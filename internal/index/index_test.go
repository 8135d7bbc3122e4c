package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/types"
)

func intKey(i int64) types.Row { return types.Row{types.NewInt(i)} }

func TestSkipListGetOrInsert(t *testing.T) {
	s := NewSkipList[string]()
	v1 := "one"
	e, loaded := s.GetOrInsert(intKey(1), &v1)
	if loaded {
		t.Fatal("fresh insert reported loaded")
	}
	if *e.Load() != "one" {
		t.Fatal("stored value mismatch")
	}
	v2 := "uno"
	e2, loaded := s.GetOrInsert(intKey(1), &v2)
	if !loaded {
		t.Fatal("second insert should load existing")
	}
	if *e2.Load() != "one" {
		t.Fatal("existing value should win")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSkipListGet(t *testing.T) {
	s := NewSkipList[int]()
	for i := 0; i < 100; i++ {
		v := i * 10
		s.GetOrInsert(intKey(int64(i)), &v)
	}
	for i := 0; i < 100; i++ {
		got := s.Get(intKey(int64(i)))
		if got == nil || *got != i*10 {
			t.Fatalf("Get(%d) = %v", i, got)
		}
	}
	if s.Get(intKey(1000)) != nil {
		t.Error("absent key should return nil")
	}
}

func TestSkipListSortedIteration(t *testing.T) {
	s := NewSkipList[int]()
	perm := rand.New(rand.NewSource(7)).Perm(500)
	for _, i := range perm {
		v := i
		s.GetOrInsert(intKey(int64(i)), &v)
	}
	var got []int64
	s.Seek(nil, func(k types.Row, e *Entry[int]) bool {
		got = append(got, k[0].I)
		return true
	})
	if len(got) != 500 {
		t.Fatalf("iterated %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("iteration not sorted")
	}
}

func TestSkipListSeekAndRange(t *testing.T) {
	s := NewSkipList[int]()
	for i := 0; i < 20; i += 2 { // evens 0..18
		v := i
		s.GetOrInsert(intKey(int64(i)), &v)
	}
	var got []int64
	s.Seek(intKey(5), func(k types.Row, e *Entry[int]) bool {
		got = append(got, k[0].I)
		return len(got) < 3
	})
	want := []int64{6, 8, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Seek got %v, want %v", got, want)
		}
	}
	got = got[:0]
	s.Range(intKey(4), intKey(12), func(k types.Row, e *Entry[int]) bool {
		got = append(got, k[0].I)
		return true
	})
	want = []int64{4, 6, 8, 10}
	if len(got) != len(want) {
		t.Fatalf("Range got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range got %v, want %v", got, want)
		}
	}
}

func TestSkipListEntryCAS(t *testing.T) {
	s := NewSkipList[int]()
	v1 := 1
	e, _ := s.GetOrInsert(intKey(9), &v1)
	v2 := 2
	if !e.CompareAndSwap(&v1, &v2) {
		t.Fatal("CAS should succeed")
	}
	if e.CompareAndSwap(&v1, &v2) {
		t.Fatal("stale CAS should fail")
	}
	if *s.Get(intKey(9)) != 2 {
		t.Fatal("CAS value not visible")
	}
	e.Store(&v1)
	if *e.Load() != 1 {
		t.Fatal("Store/Load")
	}
	if e.Key()[0].I != 9 {
		t.Fatal("Key")
	}
}

func TestSkipListConcurrentInserts(t *testing.T) {
	s := NewSkipList[int64]()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := int64(i) // heavy contention: same key space
				v := int64(g*perG + i)
				s.GetOrInsert(intKey(k), &v)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != perG {
		t.Fatalf("Len = %d, want %d (no lost or duplicate keys)", s.Len(), perG)
	}
	// Every key present exactly once, iteration sorted.
	var prev int64 = -1
	count := 0
	s.Seek(nil, func(k types.Row, e *Entry[int64]) bool {
		if k[0].I <= prev {
			t.Errorf("unsorted or duplicate key %d after %d", k[0].I, prev)
			return false
		}
		prev = k[0].I
		count++
		return true
	})
	if count != perG {
		t.Fatalf("iterated %d, want %d", count, perG)
	}
}

func TestSkipListConcurrentDisjointInserts(t *testing.T) {
	s := NewSkipList[int]()
	const goroutines = 8
	const perG = 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := i
				s.GetOrInsert(intKey(int64(g*perG+i)), &v)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", s.Len(), goroutines*perG)
	}
}

func TestSkipListCompositeKeys(t *testing.T) {
	s := NewSkipList[int]()
	keys := []types.Row{
		{types.NewInt(1), types.NewString("b")},
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("a")},
	}
	for i, k := range keys {
		v := i
		s.GetOrInsert(k, &v)
	}
	var got []string
	s.Seek(nil, func(k types.Row, e *Entry[int]) bool {
		got = append(got, fmt.Sprintf("%d%s", k[0].I, k[1].S))
		return true
	})
	want := []string{"1a", "1b", "2a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("composite order got %v", got)
		}
	}
}
