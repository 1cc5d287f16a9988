package overlay

import (
	"fmt"
	"slices"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
)

// sameTree reports the first difference between got and a freshly built
// want: session, pairs, route edges and nodes, Use, KeyHash and Key.
func sameTree(got, want *Tree) error {
	if got.SessionID != want.SessionID {
		return fmt.Errorf("session %d, want %d", got.SessionID, want.SessionID)
	}
	if !slices.Equal(got.Pairs, want.Pairs) {
		return fmt.Errorf("pairs %v, want %v", got.Pairs, want.Pairs)
	}
	if len(got.Routes) != len(want.Routes) {
		return fmt.Errorf("%d routes, want %d", len(got.Routes), len(want.Routes))
	}
	for k := range want.Routes {
		if !slices.Equal(got.Routes[k].Edges, want.Routes[k].Edges) ||
			!slices.Equal(got.Routes[k].Nodes, want.Routes[k].Nodes) {
			return fmt.Errorf("route %d differs", k)
		}
	}
	if !slices.Equal(got.Use(), want.Use()) {
		return fmt.Errorf("use %v, want %v", got.Use(), want.Use())
	}
	if got.KeyHash() != want.KeyHash() {
		return fmt.Errorf("key hash %x, want %x", got.KeyHash(), want.KeyHash())
	}
	if got.Key() != want.Key() {
		return fmt.Errorf("key %q, want %q", got.Key(), want.Key())
	}
	return nil
}

// memoNetworks returns the two topology families the memo is checked on.
func memoNetworks(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	wax, err := topology.Waxman(topology.DefaultWaxman(120), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	two, err := topology.TwoLevel(topology.DefaultTwoLevel(4, 30), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"waxman": wax.Graph, "twolevel": two.Graph}
}

// memoOracle builds a fixed oracle for a random session of the given size.
func memoOracle(t testing.TB, g *graph.Graph, r *rng.RNG, id, size int) *FixedOracle {
	t.Helper()
	members := r.Sample(g.NumNodes(), size)
	s, err := NewSession(id, members, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewFixedOracle(g, routing.NewMemberRoutes(g, nil, [][]graph.NodeID{members}), s)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestFixedOracleMemoMatchesFresh checks that trees served from a Scratch's
// memo equal the trees a fresh scratch builds (MinTree always misses): for
// one pooled scratch, across the memo's clear at its cap, and on the
// workers of a multi-worker BatchRunner.
func TestFixedOracleMemoMatchesFresh(t *testing.T) {
	t.Run("pooled", testMemoPooled)
	t.Run("cap", testMemoCap)
	t.Run("batch", testMemoBatch)
}

// testMemoPooled runs two sessions of each size 2-11 (memoised) and 12 (one
// pair too many for the mask) through one scratch, under randomly perturbed
// lengths drawn so that picks repeat.
func testMemoPooled(t *testing.T) {
	for name, g := range memoNetworks(t) {
		r := rng.New(11)
		// Two sessions per size, so one scratch serves oracles whose masks
		// collide.
		var oracles []*FixedOracle
		for size := 2; size <= 12; size++ {
			for k := 0; k < 2; k++ {
				oracles = append(oracles, memoOracle(t, g, r, len(oracles), size))
			}
		}
		// A few base length functions, each call perturbing one of them a
		// little: nearby lengths mostly repeat a pick, sometimes change it.
		bases := make([]graph.Lengths, 3)
		for b := range bases {
			bases[b] = graph.NewLengths(g, 0)
			for e := range bases[b] {
				bases[b][e] = 0.5 + r.Float64()
			}
		}
		sc := NewScratch(g)
		seen := make(map[*Tree]bool)
		hits := make([]int, len(oracles))
		d := graph.NewLengths(g, 0)
		for trial := 0; trial < 60; trial++ {
			copy(d, bases[r.Intn(len(bases))])
			for k := 0; k < 3; k++ {
				d[r.Intn(len(d))] *= 1 + r.Float64()
			}
			for k, o := range oracles {
				want, err := o.MinTree(d)
				if err != nil {
					t.Fatal(err)
				}
				got, err := o.MinTreeWith(d, sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTree(got, want); err != nil {
					t.Fatalf("%s size %d trial %d: %v", name, o.Session().Size(), trial, err)
				}
				if seen[got] {
					hits[k]++
				}
				seen[got] = true
			}
		}
		for k, o := range oracles {
			size := o.Session().Size()
			if size <= maxMemoMembers && hits[k] == 0 {
				t.Errorf("%s size %d: no call was served from the memo", name, size)
			}
			if size > maxMemoMembers && hits[k] != 0 {
				t.Errorf("%s size %d: %d calls returned a repeated tree past the mask limit", name, size, hits[k])
			}
		}
		if len(sc.memo) > treeMemoCap {
			t.Errorf("%s: memo holds %d trees, cap %d", name, len(sc.memo), treeMemoCap)
		}
	}
}

// testMemoCap drives one scratch through more distinct trees than
// treeMemoCap: the memo must clear when full, never exceed the cap, and keep
// returning correct trees afterwards.
func testMemoCap(t *testing.T) {
	g := memoNetworks(t)["waxman"]
	r := rng.New(21)
	oracles := make([]*FixedOracle, 4)
	for i := range oracles {
		oracles[i] = memoOracle(t, g, r, i, maxMemoMembers)
	}
	sc := NewScratch(g)
	d := graph.NewLengths(g, 0)
	clears, prev := 0, 0
	for call := 0; call < 4*treeMemoCap && clears < 2; call++ {
		for e := range d {
			d[e] = 0.1 + r.Float64()
		}
		o := oracles[call%len(oracles)]
		got, err := o.MinTreeWith(d, sc)
		if err != nil {
			t.Fatal(err)
		}
		n := len(sc.memo)
		if n > treeMemoCap {
			t.Fatalf("call %d: memo holds %d trees, cap %d", call, n, treeMemoCap)
		}
		if n < prev {
			clears++
		}
		prev = n
		if clears > 0 {
			want, err := o.MinTree(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, want); err != nil {
				t.Fatalf("call %d after %d clears: %v", call, clears, err)
			}
		}
	}
	if clears < 2 {
		t.Fatalf("memo cleared %d times, want 2 (cap %d, holds %d)", clears, treeMemoCap, len(sc.memo))
	}
}

// testMemoBatch runs a multi-worker BatchRunner over fixed oracles for
// several rounds of ledger bumps — each worker serving trees from its own
// memo — and checks every slot against a fresh MinTree. Under -race it also
// covers the memo's per-worker ownership.
func testMemoBatch(t *testing.T) {
	g := memoNetworks(t)["twolevel"]
	r := rng.New(31)
	oracles := make([]TreeOracle, 16)
	for i := range oracles {
		oracles[i] = memoOracle(t, g, r, i, 3+i%6)
	}
	runner := NewBatchRunner(g, oracles, 4)
	defer runner.Close()
	ls := graph.NewLengthStore(g, 1)
	for round := 0; round < 12; round++ {
		res := runner.MinTrees(ls, nil)
		for i, br := range res {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
			want, err := oracles[i].MinTree(ls.Values())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(br.Tree, want); err != nil {
				t.Fatalf("round %d oracle %d: %v", round, i, err)
			}
		}
		// Bump every other round so some rounds repeat the previous picks.
		if round%2 == 1 {
			bumpTreeEdges(ls, res[round%len(res)].Tree)
		}
	}
}
