package db

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/types"
)

// TestCostGroupedAggAllocs pins the allocations of one grouped query
// through a prepared statement, per key shape, over merged rows on one
// worker. Grouping boxes no per-row key for any shape, so a string or
// two-column key costs about what an integer key does; a bound that
// scales with the row count means a per-row allocation came back. A
// change that lowers a count lowers its bound.
func TestCostGroupedAggAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const rows = 20_000
	d := openTest(t, Options{Parallelism: 1})
	mustExec(t, d, `CREATE TABLE tel (id BIGINT, hid BIGINT, host VARCHAR, v DOUBLE, PRIMARY KEY (id))`)
	eng := d.Engine()
	tx := eng.Begin()
	for i := 0; i < rows; i++ {
		h := i % 16
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(h)), types.NewString(fmt.Sprintf("host-%02d", h)), types.NewFloat(float64(i%1000) / 4)}
		if err := tx.Insert("tel", row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Merge("tel"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key   string
		bound float64
	}{
		{"hid", 287},       // measured 287 (289 with the boxed loop)
		{"host", 287},      // measured 287 (20,336 with the boxed loop)
		{"hid, host", 290}, // measured 290 (20,338 with the boxed loop)
	} {
		st, err := d.Prepare(context.Background(), `SELECT `+c.key+`, COUNT(*), AVG(v), MAX(v) FROM tel GROUP BY `+c.key)
		if err != nil {
			t.Fatal(err)
		}
		query := func() {
			rs, err := st.Query(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for rs.Next() {
				n++
			}
			if err := rs.Close(); err != nil || n != 16 {
				t.Fatalf("GROUP BY %s: %d groups, err %v; want 16", c.key, n, err)
			}
		}
		query() // warm the plan cache and the statement's pooled plan
		if allocs := testing.AllocsPerRun(5, query); allocs > c.bound {
			t.Errorf("GROUP BY %s: %.0f allocations per query, bound %.0f", c.key, allocs, c.bound)
		}
	}
}
