package overlay

import (
	"testing"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
)

// scratchEnv builds a Waxman instance with one session and both oracles.
func scratchEnv(t testing.TB, seed uint64, nodes, size int) (*graph.Graph, *FixedOracle, *ArbitraryOracle) {
	t.Helper()
	r := rng.New(seed)
	net, err := topology.Waxman(topology.DefaultWaxman(nodes), r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	members := r.Split(1).Sample(nodes, size)
	s, err := NewSession(0, members, 100)
	if err != nil {
		t.Fatal(err)
	}
	rt := routing.NewIPRoutes(net.Graph, members)
	fo, err := NewFixedOracle(net.Graph, rt, s)
	if err != nil {
		t.Fatal(err)
	}
	ao, err := NewArbitraryOracle(net.Graph, s)
	if err != nil {
		t.Fatal(err)
	}
	return net.Graph, fo, ao
}

// TestMinTreeWithMatchesMinTree asserts the scratch path returns trees
// identical (by canonical key and dual length) to the allocating path, for
// both oracles, across varied length functions and repeated scratch reuse.
func TestMinTreeWithMatchesMinTree(t *testing.T) {
	g, fo, ao := scratchEnv(t, 5, 80, 7)
	sc := NewScratch(g)
	lr := rng.New(99)
	for trial := 0; trial < 25; trial++ {
		d := graph.NewLengths(g, 0)
		for e := range d {
			d[e] = 0.01 + lr.Float64()
		}
		for _, o := range []TreeOracle{fo, ao} {
			want, err := o.MinTree(d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MinTreeWith(o, d, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key() != want.Key() {
				t.Fatalf("trial %d: scratch tree key %q != %q", trial, got.Key(), want.Key())
			}
			if got.LengthUnder(d) != want.LengthUnder(d) {
				t.Fatalf("trial %d: scratch tree length %v != %v", trial, got.LengthUnder(d), want.LengthUnder(d))
			}
			wu, gu := want.Use(), got.Use()
			if len(wu) != len(gu) {
				t.Fatalf("trial %d: use lengths differ: %d vs %d", trial, len(gu), len(wu))
			}
			for i := range wu {
				if wu[i] != gu[i] {
					t.Fatalf("trial %d: use[%d] = %+v, want %+v", trial, i, gu[i], wu[i])
				}
			}
		}
	}
}

// TestMinTreeWithAllocs is the allocation regression test for the MOST hot
// path: with a pooled scratch, a repeated fixed-oracle pick is served from
// the scratch's tree memo — the same *Tree, allocating nothing — and an
// arbitrary-oracle call may only allocate the returned tree.
func TestMinTreeWithAllocs(t *testing.T) {
	g, fo, ao := scratchEnv(t, 6, 200, 8)
	sc := NewScratch(g)
	d := graph.NewLengths(g, 1)

	first, err := fo.MinTreeWith(d, sc)
	if err != nil {
		t.Fatal(err)
	}
	fixed := testing.AllocsPerRun(50, func() {
		got, err := fo.MinTreeWith(d, sc)
		if err != nil || got != first {
			t.Fatalf("repeat call returned %p (err %v), want memoised %p", got, err, first)
		}
	})
	if fixed != 0 {
		t.Fatalf("FixedOracle.MinTreeWith memo hit allocates %v per run, want 0", fixed)
	}

	arbitrary := testing.AllocsPerRun(50, func() {
		if _, err := ao.MinTreeWith(d, sc); err != nil {
			t.Fatal(err)
		}
	})
	// The arbitrary oracle additionally materializes one fresh Path (nodes +
	// edges slices, with append growth) per overlay edge.
	limit := float64(4 + 8*ao.Session().Receivers())
	if arbitrary > limit {
		t.Fatalf("ArbitraryOracle.MinTreeWith allocates %v per run, want <= %v", arbitrary, limit)
	}
}
