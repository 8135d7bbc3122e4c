package repro

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
)

// Ablation benches isolate individual design choices the architecture
// depends on (complementing the E-series in bench_test.go, which measures
// end-to-end claims).

// AblationDictScan: evaluating a string predicate in the code domain
// (order-preserving dictionary) vs decoding every value first — the
// reason the dictionary is order-preserving at all.
func BenchmarkAblation_StringPredicate(b *testing.B) {
	const n = 1_000_000
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("w-%05d", i%2000)
	}
	dict := compress.BuildDictionary(words)
	codes, _ := dict.Encode(words)
	packed := compress.Pack(codes, compress.BitWidthFor(uint64(dict.Size()-1)))
	b.Run("code-domain", func(b *testing.B) {
		lo := uint64(dict.LowerBound("w-00500"))
		hi := uint64(dict.UpperBound("w-00600"))
		for i := 0; i < b.N; i++ {
			packed.ScanRange(lo, hi, nil)
		}
	})
	b.Run("decode-then-compare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sel []int
			for j := 0; j < packed.Len(); j++ {
				w := dict.Value(int(packed.Get(j)))
				if w >= "w-00500" && w <= "w-00600" {
					sel = append(sel, j)
				}
			}
			_ = sel
		}
	})
}

// AblationMergeCost: what one delta-merge costs as the delta grows —
// the latency the engine pays for keeping scans fast (E3's other axis).
func BenchmarkAblation_MergeCost(b *testing.B) {
	for _, rows := range []int{10_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("delta=%d", rows), func(b *testing.B) {
			schema := wideSchema(8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, _ := core.NewEngine(core.Options{})
				e.CreateTable("t", schema)
				tx := e.Begin()
				for j := 0; j < rows; j++ {
					tx.Insert("t", wideRow(schema, int64(j)))
				}
				tx.Commit()
				b.StartTimer()
				if _, err := e.Merge("t"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				e.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows-merged/s")
		})
	}
}

// AblationWALGroupCommit: per-record vs batched log appends — the WAL
// design that keeps OLTP latency low under durability. The log runs in
// SyncAsync so the ablation isolates append cost from fsync latency
// (E15 measures the fsync side).
func BenchmarkAblation_WALGroupCommit(b *testing.B) {
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("txns-per-commit=%d", batch), func(b *testing.B) {
			e, err := core.NewEngine(core.Options{Dir: b.TempDir(), Sync: core.SyncAsync})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			schema := wideSchema(4)
			e.CreateTable("t", schema)
			b.ResetTimer()
			id := int64(0)
			for i := 0; i < b.N; i++ {
				tx := e.Begin()
				for j := 0; j < batch; j++ {
					tx.Insert("t", wideRow(schema, id))
					id++
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(id)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
