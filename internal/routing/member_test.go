package routing

import (
	"slices"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// refBFSParents is the textbook hop-count BFS the fixed routes follow:
// neighbours scanned in EdgeID order, first discovery wins.
func refBFSParents(g *graph.Graph, s graph.NodeID) []graph.EdgeID {
	parent := make([]graph.EdgeID, g.NumNodes())
	seen := make([]bool, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	seen[s] = true
	queue := []graph.NodeID{s}
	for head := 0; head < len(queue); head++ {
		ids, tos := g.Neighbors(queue[head])
		for k, id := range ids {
			if w := tos[k]; !seen[w] {
				seen[w] = true
				parent[w] = id
				queue = append(queue, w)
			}
		}
	}
	return parent
}

// randomGroups draws groups of 2..6 members from a small shared pool, so
// members recur across groups; some groups repeat a member.
func randomGroups(r *rng.RNG, n, count int) [][]graph.NodeID {
	pool := r.Sample(n, min(n, 3*count))
	groups := make([][]graph.NodeID, count)
	for i := range groups {
		size := 2 + r.Intn(5)
		for j := 0; j < size; j++ {
			groups[i] = append(groups[i], pool[r.Intn(len(pool))])
		}
	}
	return groups
}

func samePath(a, b Path) bool {
	return slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Edges, b.Edges)
}

// TestMemberRoutesMatchFullTrees is the route-equivalence property: for
// every within-group pair, in both directions, the early-stopped member
// table returns exactly the route of the full-tree table and of an
// independent reference search — on Waxman and two-level graphs, under
// delay weights, unit weights (heavy ties, exercising the (key, id)
// tie-break) and hop count, at 1, 2 and 8 workers.
func TestMemberRoutesMatchFullTrees(t *testing.T) {
	type instance struct {
		name string
		net  *topology.Network
	}
	var nets []instance
	for seed := uint64(1); seed <= 3; seed++ {
		wax, err := topology.Waxman(topology.DefaultWaxman(150), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		two, err := topology.TwoLevel(topology.DefaultTwoLevel(6, 20), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, instance{"waxman", wax}, instance{"twolevel", two})
	}
	for ni, in := range nets {
		g := in.net.Graph
		weights := map[string]graph.Lengths{
			"delay": in.net.LinkDelays(),
			"unit":  graph.NewLengths(g, 1),
			"hops":  nil,
		}
		groups := randomGroups(rng.New(uint64(100+ni)), g.NumNodes(), 20)
		var members []graph.NodeID
		for _, grp := range groups {
			members = append(members, grp...)
		}
		for wname, w := range weights {
			var full *IPRoutes
			ref := func(u graph.NodeID) []graph.EdgeID { return refBFSParents(g, u) }
			if w == nil {
				full = NewIPRoutes(g, members)
			} else {
				full = NewWeightedIPRoutes(g, members, w)
				ref = func(u graph.NodeID) []graph.EdgeID { _, p := ShortestPaths(g, u, w); return p }
			}
			for _, workers := range []int{1, 2, 8} {
				mr := newMemberRoutes(g, w, groups, workers)
				fullW := newIPRoutes(g, w, members, workers)
				for _, grp := range groups {
					for _, u := range grp {
						for _, v := range grp {
							got, err := mr.Route(u, v)
							if err != nil {
								t.Fatalf("%s/%s/%d workers: Route(%d,%d): %v", in.name, wname, workers, u, v, err)
							}
							if err := got.Validate(g); err != nil {
								t.Fatal(err)
							}
							want, _ := full.Route(u, v)
							if !samePath(got, want) {
								t.Fatalf("%s/%s/%d workers: Route(%d,%d) = %v, full tree gives %v", in.name, wname, workers, u, v, got, want)
							}
							if other, _ := fullW.Route(u, v); !samePath(other, want) {
								t.Fatalf("%s/%s/%d workers: full table Route(%d,%d) differs across worker counts", in.name, wname, workers, u, v)
							}
							if u == v {
								continue
							}
							root, leaf := min(u, v), max(u, v)
							indep, err := DijkstraRoute(g, root, leaf, ref(root))
							if err != nil {
								t.Fatal(err)
							}
							if u > v {
								indep = indep.Reverse()
							}
							if !samePath(got, indep) {
								t.Fatalf("%s/%s/%d workers: Route(%d,%d) = %v, reference search gives %v", in.name, wname, workers, u, v, got, indep)
							}
						}
					}
				}
			}
		}
	}
}

// TestMemberRoutesUnreachable checks that a pair split across components
// reports the full table's unreachable error in both directions while the
// reachable pairs of the same group still resolve.
func TestMemberRoutesUnreachable(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	for _, w := range []graph.Lengths{nil, graph.NewLengths(g, 1)} {
		groups := [][]graph.NodeID{{0, 2, 4}}
		mr := newMemberRoutes(g, w, groups, 2)
		full := NewIPRoutes(g, groups[0])
		if p, err := mr.Route(2, 0); err != nil || p.Hops() != 2 {
			t.Fatalf("Route(2,0) = %v, %v; want 2 hops", p, err)
		}
		for _, pr := range [][2]graph.NodeID{{0, 4}, {4, 2}} {
			_, err := mr.Route(pr[0], pr[1])
			_, want := full.Route(pr[0], pr[1])
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("Route(%d,%d) error %v, full table gives %v", pr[0], pr[1], err, want)
			}
		}
	}
}

// TestMemberRoutesRejectsForeignPair checks that querying two nodes that
// share no group panics rather than returning a wrong route.
func TestMemberRoutesRejectsForeignPair(t *testing.T) {
	net, _ := topology.Ring(6, 1)
	mr := NewMemberRoutes(net.Graph, nil, [][]graph.NodeID{{0, 1}, {2, 3}})
	defer func() {
		if recover() == nil {
			t.Fatal("Route across groups did not panic")
		}
	}()
	mr.Route(1, 2)
}

// memberBenchInstance is a routing-layer slice of the cold-mcf workload: a
// two-level topology of 20 ASes x 50 routers with delay weights and 64
// sessions of 6 uniformly drawn members.
func memberBenchInstance(b *testing.B) (*graph.Graph, graph.Lengths, [][]graph.NodeID) {
	net, err := topology.TwoLevel(topology.DefaultTwoLevel(20, 50), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	groups := make([][]graph.NodeID, 64)
	for i := range groups {
		groups[i] = r.Sample(net.Graph.NumNodes(), 6)
	}
	return net.Graph, net.LinkDelays(), groups
}

// BenchmarkMemberRoutes builds the within-session routes a problem's fixed
// oracles read: early-stopped searches from the smaller endpoint of each
// pair, pooled per worker.
func BenchmarkMemberRoutes(b *testing.B) {
	g, w, groups := memberBenchInstance(b)
	b.ReportAllocs()
	for b.Loop() {
		NewMemberRoutes(g, w, groups)
	}
}

// BenchmarkWeightedIPRoutes builds full shortest-path trees from every member
// of the same instance, the table problems were built on before member
// routes.
func BenchmarkWeightedIPRoutes(b *testing.B) {
	g, w, groups := memberBenchInstance(b)
	var members []graph.NodeID
	for _, grp := range groups {
		members = append(members, grp...)
	}
	b.ReportAllocs()
	for b.Loop() {
		NewWeightedIPRoutes(g, members, w)
	}
}
