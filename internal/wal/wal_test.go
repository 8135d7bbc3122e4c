package wal

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestKindString(t *testing.T) {
	if KindCommit.String() != "COMMIT" || KindInsert.String() != "INSERT" {
		t.Error("Kind.String")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := Record{
		LSN:   42,
		TxnID: 7,
		Kind:  KindInsert,
		Table: "orders",
		Row: types.Row{
			types.NewInt(-5),
			types.NewFloat(2.75),
			types.NewString("héllo"),
			types.NewBool(true),
			types.NewNull(types.String),
		},
	}
	buf := rec.Encode(nil)
	got, err := DecodeRecord(buf)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if got.LSN != rec.LSN || got.TxnID != rec.TxnID || got.Kind != rec.Kind || got.Table != rec.Table {
		t.Fatalf("header mismatch: %+v", got)
	}
	if types.CompareKeys(got.Row, rec.Row) != 0 {
		t.Fatalf("row mismatch: %v vs %v", got.Row, rec.Row)
	}
	if !got.Row[4].Null {
		t.Fatal("null not preserved")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		rec := Record{LSN: 1, TxnID: 2, Kind: KindUpdate, Table: "t",
			Row: types.Row{types.NewInt(i), types.NewFloat(fl), types.NewString(s), types.NewBool(b)}}
		got, err := DecodeRecord(rec.Encode(nil))
		if err != nil {
			return false
		}
		return types.CompareKeys(got.Row, rec.Row) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeTorn(t *testing.T) {
	rec := Record{LSN: 1, TxnID: 1, Kind: KindInsert, Table: "t", Row: types.Row{types.NewString("abcdef")}}
	buf := rec.Encode(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeRecord(buf[:cut]); err == nil {
			// Some prefixes can decode to a shorter valid record only if
			// varint boundaries align; LSN+txn+kind+lengths make that
			// impossible before the full row is present.
			t.Fatalf("truncated decode at %d succeeded", cut)
		}
	}
}

// writeLog appends each group through a SyncSync segmented log in dir
// and returns the path of the log's only segment.
func writeLog(t *testing.T, dir string, groups ...[]Record) string {
	t.Helper()
	l, err := OpenLog(dir, LogOptions{Mode: SyncSync})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if _, err := l.Append(g...); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	return filepath.Join(dir, segs[0])
}

// replayedInserts returns the first column of every INSERT ReplayDir
// delivers, in log order.
func replayedInserts(t *testing.T, dir string) []int64 {
	t.Helper()
	var applied []int64
	if err := ReplayDir(nil, dir, 0, func(r Record) error {
		if r.Kind == KindInsert {
			applied = append(applied, r.Row[0].I)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return applied
}

func TestReplayFiltersUncommitted(t *testing.T) {
	dir := t.TempDir()
	// txn 1 commits, txn 2 aborts, txn 3 in flight at crash.
	writeLog(t, dir,
		[]Record{{TxnID: 1, Kind: KindBegin}},
		[]Record{intRec(1, KindInsert, 1)},
		[]Record{{TxnID: 2, Kind: KindBegin}},
		[]Record{intRec(2, KindInsert, 2)},
		[]Record{{TxnID: 1, Kind: KindCommit}},
		[]Record{{TxnID: 2, Kind: KindAbort}},
		[]Record{{TxnID: 3, Kind: KindBegin}},
		[]Record{intRec(3, KindInsert, 3)},
	)
	if applied := replayedInserts(t, dir); len(applied) != 1 || applied[0] != 1 {
		t.Fatalf("ReplayDir applied %v, want [1]", applied)
	}
}

func TestReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	path := writeLog(t, dir,
		[]Record{intRec(1, KindInsert, 10), {TxnID: 1, Kind: KindCommit}},
		[]Record{intRec(2, KindInsert, 20), {TxnID: 2, Kind: KindCommit}},
	)
	// Simulate a crash mid-write: truncate inside the final record.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	// txn 2's COMMIT was torn, so only txn 1 replays.
	if applied := replayedInserts(t, dir); len(applied) != 1 || applied[0] != 10 {
		t.Fatalf("ReplayDir after torn tail = %v, want [10]", applied)
	}
}

func TestReplayCorruptMiddleStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	path := writeLog(t, dir,
		[]Record{{TxnID: 1, Kind: KindBegin}},
		[]Record{intRec(1, KindInsert, 10)},
		[]Record{{TxnID: 1, Kind: KindCommit}},
	)
	// Flip a byte in the middle: the record CRC must catch it, treating
	// the rest as torn.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSegments(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 3 {
		t.Fatalf("corruption not detected: %d records", len(recs))
	}
}
