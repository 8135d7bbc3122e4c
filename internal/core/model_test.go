package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// TestModelEquivalence drives the engine with a long random operation
// sequence — inserts, updates, deletes, merges, compactions, aborts —
// mirrored against a plain map model, and checks full equivalence after
// every batch. This is the repo's broadest storage-correctness net: any
// MVCC, merge, truncation, or segment-visibility bug surfaces as a
// divergence from the model.
func TestModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(string(rune('A'-1+seed)), func(t *testing.T) {
			t.Parallel()
			runModel(t, seed)
		})
	}
}

func runModel(t *testing.T, seed int64) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(seed))
	model := map[int64]int64{} // id -> qty
	const keySpace = 200
	const steps = 2500

	for step := 0; step < steps; step++ {
		id := int64(rng.Intn(keySpace))
		tx := e.Begin()
		abort := rng.Intn(10) == 0
		switch rng.Intn(4) {
		case 0: // insert
			err := tx.Insert("items", row(id, "m", id*7))
			_, exists := model[id]
			if exists && !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("step %d: insert dup %d: %v", step, id, err)
			}
			if !exists && err != nil {
				t.Fatalf("step %d: insert %d: %v", step, id, err)
			}
			if err == nil && !abort {
				model[id] = id * 7
			}
		case 1: // update
			newQty := int64(rng.Intn(10000))
			err := tx.Update("items", key(id), row(id, "m", newQty))
			_, exists := model[id]
			if exists && err != nil {
				t.Fatalf("step %d: update %d: %v", step, id, err)
			}
			if !exists && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: update missing %d: %v", step, id, err)
			}
			if err == nil && !abort {
				model[id] = newQty
			}
		case 2: // delete
			err := tx.Delete("items", key(id))
			_, exists := model[id]
			if exists && err != nil {
				t.Fatalf("step %d: delete %d: %v", step, id, err)
			}
			if !exists && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: delete missing %d: %v", step, id, err)
			}
			if err == nil && !abort {
				delete(model, id)
			}
		case 3: // point read
			got, ok, err := tx.Get("items", key(id))
			if err != nil {
				t.Fatalf("step %d: get: %v", step, err)
			}
			want, exists := model[id]
			if ok != exists {
				t.Fatalf("step %d: get %d presence = %v, model %v", step, id, ok, exists)
			}
			if ok && got[2].I != want {
				t.Fatalf("step %d: get %d = %d, model %d", step, id, got[2].I, want)
			}
			abort = true // reads need no commit
		}
		if abort {
			tx.Abort()
		} else if _, err := tx.Commit(); err != nil {
			t.Fatalf("step %d: commit: %v", step, err)
		}

		// Periodically merge and verify full-state equivalence.
		if step%250 == 249 {
			if rng.Intn(2) == 0 {
				if _, err := e.Merge("items"); err != nil {
					t.Fatalf("step %d: merge: %v", step, err)
				}
			}
			verifyModel(t, e, model, step)
		}
	}
	e.Merge("items")
	verifyModel(t, e, model, steps)
}

func verifyModel(t *testing.T, e *Engine, model map[int64]int64, step int) {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	got := map[int64]int64{}
	_, err := tx.ScanCtx(context.Background(), "items", nil, nil, func(b *types.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			r := b.Row(i)
			if _, dup := got[r[0].I]; dup {
				t.Fatalf("step %d: duplicate key %d in scan", step, r[0].I)
			}
			got[r[0].I] = r[2].I
		}
		return true
	})
	if err != nil {
		t.Fatalf("step %d: scan: %v", step, err)
	}
	if len(got) != len(model) {
		t.Fatalf("step %d: scan has %d rows, model %d", step, len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("step %d: key %d = %d, model %d", step, k, got[k], v)
		}
	}
}
