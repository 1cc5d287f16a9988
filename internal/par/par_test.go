package par

import (
	"sync/atomic"
	"testing"
)

// TestForCoversEveryIndexOnce checks that every index runs exactly once, that
// worker ids stay in range, and that calls sharing a worker id never overlap.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		for _, n := range []int{0, 1, 7, 64} {
			hits := make([]int32, n)
			limit := workers
			if limit > n {
				limit = n
			}
			if limit < 1 {
				limit = 1
			}
			busy := make([]int32, limit)
			For(workers, n, func(w, i int) {
				if w < 0 || w >= limit {
					t.Errorf("workers=%d n=%d: worker %d out of [0,%d)", workers, n, w, limit)
					return
				}
				if atomic.AddInt32(&busy[w], 1) != 1 {
					t.Errorf("workers=%d n=%d: worker %d runs two calls at once", workers, n, w)
				}
				atomic.AddInt32(&hits[i], 1)
				atomic.AddInt32(&busy[w], -1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForInlineOrder checks that a single worker runs the calls in index
// order on the caller's goroutine.
func TestForInlineOrder(t *testing.T) {
	var got []int
	For(1, 5, func(w, i int) {
		if w != 0 {
			t.Fatalf("inline worker id %d, want 0", w)
		}
		got = append(got, i)
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("inline order %v, want 0..4", got)
		}
	}
}
