// Package routing supplies the two unicast routing models of the paper.
//
// Fixed IP routing (Sec. II): every node pair communicates over a
// pre-determined shortest path (hop count or static weights, deterministic
// tie-breaks), exactly once, regardless of congestion. Routes are symmetric:
// route(u,v) is the reverse of route(v,u), read from the tree rooted at the
// smaller endpoint. MemberRoutes holds only the within-session pairs a
// solver's oracles use and is what problems are built on; IPRoutes keeps
// full trees, so any two of its sources can be queried.
//
// Arbitrary dynamic routing (Sec. V): a pair may use any unicast path, and
// the algorithms choose the shortest path under the *current* edge-length
// function d_e; this package provides the Dijkstra primitive those
// algorithms call each iteration.
package routing

import (
	"fmt"
	"runtime"
	"slices"

	"overcast/internal/graph"
)

// Path is a unicast route through the physical network. Nodes has one more
// element than Edges; Edges[i] joins Nodes[i] and Nodes[i+1]. An empty path
// (single node, no edges) represents a route from a node to itself.
type Path struct {
	Nodes []graph.NodeID
	Edges []graph.EdgeID
}

// Hops returns the number of physical links on the path.
func (p Path) Hops() int { return len(p.Edges) }

// Src returns the first node of the path.
func (p Path) Src() graph.NodeID { return p.Nodes[0] }

// Dst returns the last node of the path.
func (p Path) Dst() graph.NodeID { return p.Nodes[len(p.Nodes)-1] }

// Reverse returns the same route traversed in the opposite direction.
func (p Path) Reverse() Path {
	rn := make([]graph.NodeID, len(p.Nodes))
	for i, v := range p.Nodes {
		rn[len(p.Nodes)-1-i] = v
	}
	re := make([]graph.EdgeID, len(p.Edges))
	for i, e := range p.Edges {
		re[len(p.Edges)-1-i] = e
	}
	return Path{Nodes: rn, Edges: re}
}

// Validate checks internal consistency of the path against g.
func (p Path) Validate(g *graph.Graph) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("routing: empty path")
	}
	if len(p.Edges) != len(p.Nodes)-1 {
		return fmt.Errorf("routing: %d edges for %d nodes", len(p.Edges), len(p.Nodes))
	}
	for i, id := range p.Edges {
		if id < 0 || id >= g.NumEdges() {
			return fmt.Errorf("routing: edge id %d out of range", id)
		}
		e := g.Edges[id]
		u, v := p.Nodes[i], p.Nodes[i+1]
		if !(e.U == u && e.V == v) && !(e.U == v && e.V == u) {
			return fmt.Errorf("routing: edge %d does not join %d-%d", id, u, v)
		}
	}
	return nil
}

// IPRoutes is a fixed shortest-path routing table over a set of endpoints.
// Full shortest-path trees are stored per endpoint; routes between two
// endpoints are read from the tree rooted at the smaller node id so that
// routing is symmetric.
type IPRoutes struct {
	g *graph.Graph
	// parentEdge[s][v] is the edge toward the root s on v's shortest path,
	// or -1 for v==s / unreachable.
	parentEdge map[graph.NodeID][]graph.EdgeID
	hops       map[graph.NodeID][]int
}

// NewIPRoutes computes hop-count (BFS) shortest-path trees from every node in
// sources. Only routes whose both endpoints are in sources can be queried.
func NewIPRoutes(g *graph.Graph, sources []graph.NodeID) *IPRoutes {
	return newIPRoutes(g, nil, sources, runtime.GOMAXPROCS(0))
}

// NewWeightedIPRoutes computes fixed shortest-path routes under static edge
// weights (e.g. BRITE's propagation delays — Euclidean link lengths) instead
// of hop count. This matches "shortest-path routing" over a topology whose
// links carry metric costs: routes are still fixed (independent of traffic),
// but geometrically spread rather than tie-broken arbitrarily. Symmetry is
// preserved by reading routes from the smaller endpoint's tree.
func NewWeightedIPRoutes(g *graph.Graph, sources []graph.NodeID, w graph.Lengths) *IPRoutes {
	checkWeights(g, w)
	return newIPRoutes(g, w, sources, runtime.GOMAXPROCS(0))
}

// newIPRoutes builds full trees from the distinct sources on the shared
// search driver with the given number of workers; w == nil is hop count.
func newIPRoutes(g *graph.Graph, w graph.Lengths, sources []graph.NodeID, workers int) *IPRoutes {
	var roots []graph.NodeID
	seen := make(map[graph.NodeID]bool, len(sources))
	for _, s := range sources {
		if !seen[s] {
			seen[s] = true
			roots = append(roots, s)
		}
	}
	parents := make([][]graph.EdgeID, len(roots))
	hops := make([][]int, len(roots))
	searchTrees(g, w, roots, nil, workers, func(i int, parent []graph.EdgeID) {
		parents[i] = slices.Clone(parent)
		hops[i] = depthsFromParents(g, parents[i], roots[i])
	})
	t := &IPRoutes{
		g:          g,
		parentEdge: make(map[graph.NodeID][]graph.EdgeID, len(roots)),
		hops:       make(map[graph.NodeID][]int, len(roots)),
	}
	for i, s := range roots {
		t.parentEdge[s] = parents[i]
		t.hops[s] = hops[i]
	}
	return t
}

// checkWeights panics unless w has one weight per edge of g.
func checkWeights(g *graph.Graph, w graph.Lengths) {
	if len(w) != g.NumEdges() {
		panic("routing: weight vector size mismatch")
	}
}

// NewWeightedIPRoutesFromTrees builds a fixed route table from precomputed
// weighted shortest-path trees: parents(s) must return the parent-edge array
// of a Dijkstra tree rooted at s under the intended static weights, exactly
// as ShortestPaths would compute it (e.g. a filled overlay SSSP plane row).
// The table borrows the arrays — they must stay valid and unmutated for the
// table's lifetime. Routes and hop counts are then identical to
// NewWeightedIPRoutes over the same sources and weights, without re-running
// any Dijkstra, which is what lets many member-restricted tables over one
// static weight snapshot share a single set of trees.
func NewWeightedIPRoutesFromTrees(g *graph.Graph, sources []graph.NodeID, parents func(graph.NodeID) []graph.EdgeID) *IPRoutes {
	t := &IPRoutes{
		g:          g,
		parentEdge: make(map[graph.NodeID][]graph.EdgeID, len(sources)),
		hops:       make(map[graph.NodeID][]int, len(sources)),
	}
	for _, s := range sources {
		if _, done := t.parentEdge[s]; done {
			continue
		}
		par := parents(s)
		t.parentEdge[s] = par
		t.hops[s] = depthsFromParents(g, par, s)
	}
	return t
}

// depthsFromParents computes hop counts along a shortest-path tree given its
// parent edges; unreachable nodes get -1.
func depthsFromParents(g *graph.Graph, parent []graph.EdgeID, s graph.NodeID) []int {
	n := g.NumNodes()
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -2 // unresolved
	}
	depth[s] = 0
	var stack []graph.NodeID
	for v := 0; v < n; v++ {
		if depth[v] != -2 {
			continue
		}
		if parent[v] < 0 {
			depth[v] = -1
			continue
		}
		stack = stack[:0]
		u := v
		for depth[u] == -2 {
			stack = append(stack, u)
			if parent[u] < 0 {
				break
			}
			u = g.Edges[parent[u]].Other(u)
		}
		base := depth[u]
		for i := len(stack) - 1; i >= 0; i-- {
			if base < 0 {
				depth[stack[i]] = -1
			} else {
				base++
				depth[stack[i]] = base
			}
		}
	}
	return depth
}

// Hops returns the hop distance between two endpoints, or -1 if unreachable.
// Both endpoints must have been passed to NewIPRoutes.
func (t *IPRoutes) Hops(u, v graph.NodeID) int {
	root, leaf := u, v
	if root > leaf {
		root, leaf = leaf, root
	}
	h, ok := t.hops[root]
	if !ok {
		// Fall back to the other endpoint's tree if only it was indexed.
		if h2, ok2 := t.hops[leaf]; ok2 {
			return h2[root]
		}
		panic(fmt.Sprintf("routing: no BFS tree for %d or %d", u, v))
	}
	return h[leaf]
}

// Route returns the fixed IP route from u to v. Routes are symmetric:
// Route(u,v) equals Route(v,u) reversed. It panics if neither endpoint was
// indexed and returns an error if v is unreachable from u.
func (t *IPRoutes) Route(u, v graph.NodeID) (Path, error) {
	if u == v {
		return Path{Nodes: []graph.NodeID{u}}, nil
	}
	root, leaf, flip := u, v, false
	if root > leaf {
		root, leaf, flip = leaf, root, true
	}
	parent, ok := t.parentEdge[root]
	if !ok {
		if parent2, ok2 := t.parentEdge[leaf]; ok2 {
			parent, root, leaf, flip = parent2, leaf, root, !flip
			ok = true
		}
	}
	if !ok {
		panic(fmt.Sprintf("routing: no BFS tree for %d or %d", u, v))
	}
	p, err := treePath(t.g, parent, root, leaf)
	if err != nil || !flip {
		return p, err
	}
	return p.Reverse(), nil
}

// treePath returns the root->leaf path of the shortest-path tree given by
// its parent edges, allocating the path exactly once.
func treePath(g *graph.Graph, parent []graph.EdgeID, root, leaf graph.NodeID) (Path, error) {
	hops := 0
	for v := leaf; v != root; hops++ {
		id := parent[v]
		if id < 0 {
			return Path{}, fmt.Errorf("routing: node %d unreachable from %d", leaf, root)
		}
		v = g.Edges[id].Other(v)
	}
	p := Path{Nodes: make([]graph.NodeID, hops+1), Edges: make([]graph.EdgeID, hops)}
	v := leaf
	for i := hops; i > 0; i-- {
		id := parent[v]
		p.Nodes[i], p.Edges[i-1] = v, id
		v = g.Edges[id].Other(v)
	}
	p.Nodes[0] = root
	return p, nil
}

// MaxHops returns the largest hop distance among all indexed endpoint pairs;
// this is the U parameter (length of the longest unicast route) in the
// FPTAS's delta computation.
func (t *IPRoutes) MaxHops(endpoints []graph.NodeID) int {
	max := 0
	for i, u := range endpoints {
		for _, v := range endpoints[i+1:] {
			if h := t.Hops(u, v); h > max {
				max = h
			}
		}
	}
	return max
}

// DijkstraScratch is reusable Dijkstra state for one graph: the indexed heap
// plus default distance/parent arrays. A scratch eliminates the three O(n)
// allocations every ShortestPaths call would otherwise make — the hot-path
// cost of the arbitrary-routing oracles, which run one Dijkstra per session
// member per Garg–Könemann iteration. A scratch is not safe for concurrent
// use; pool one per worker.
type DijkstraScratch struct {
	heap   *graph.IndexedHeap
	dist   []float64
	parent []graph.EdgeID

	// OnPop, when non-nil, is called once per settled node in pop order by
	// ShortestPathsInto and RepairSubtreesInto. It exists so tests can record
	// and compare the deterministic (key, id) pop sequence — the property the
	// subtree-repair path must reproduce bit-exactly; leave it nil on hot
	// paths.
	OnPop func(graph.NodeID)

	// Subtree-repair scratch (see RepairSubtreesInto), lazily sized on first
	// use: a generation-stamped membership mark for the invalidated set S and
	// a matching stamp marking nodes whose parent is still their precomputed
	// frontier offer (the equal-key replacement rule needs to know).
	mark    []uint32
	pend    []uint32
	markGen uint32
}

// NewDijkstraScratch sizes a scratch for g.
func NewDijkstraScratch(g *graph.Graph) *DijkstraScratch {
	n := g.NumNodes()
	return &DijkstraScratch{
		heap:   graph.NewIndexedHeap(n),
		dist:   make([]float64, n),
		parent: make([]graph.EdgeID, n),
	}
}

// ShortestPaths runs Dijkstra from src under d, reusing the scratch's own
// arrays. The returned slices are valid until the next call on this scratch.
func (sc *DijkstraScratch) ShortestPaths(g *graph.Graph, src graph.NodeID, d graph.Lengths) (dist []float64, parent []graph.EdgeID) {
	sc.ShortestPathsInto(g, src, d, sc.dist, sc.parent)
	return sc.dist, sc.parent
}

// ShortestPathsInto runs Dijkstra from src under d, writing distances and
// parent edges into the caller-supplied slices (each of length g.NumNodes()).
// It allocates nothing: the heap is reused across calls and dist/parent are
// fully overwritten. Tie-breaking is identical to ShortestPaths.
func (sc *DijkstraScratch) ShortestPathsInto(g *graph.Graph, src graph.NodeID, d graph.Lengths, dist []float64, parent []graph.EdgeID) {
	n := g.NumNodes()
	if len(dist) != n || len(parent) != n {
		panic("routing: DijkstraScratch slice size mismatch")
	}
	sc.dijkstra(g, src, d, dist, parent, nil)
}

// dijkstra is ShortestPathsInto's search. With a non-nil target set it stops
// as soon as the last pending target is settled (popped); the entries of
// every node settled by then are final and equal to the full search's.
func (sc *DijkstraScratch) dijkstra(g *graph.Graph, src graph.NodeID, d graph.Lengths, dist []float64, parent []graph.EdgeID, ts *targetSet) {
	const inf = 1e308
	for i := range dist {
		dist[i] = inf
		parent[i] = -1
	}
	dist[src] = 0
	h := sc.heap
	h.Reset()
	h.Push(src, 0)
	for h.Len() > 0 {
		v, dv := h.Pop()
		if dv > dist[v] {
			continue
		}
		if sc.OnPop != nil {
			sc.OnPop(v)
		}
		if ts != nil && ts.settle(v) {
			return
		}
		ids, tos := g.Neighbors(v)
		for k, id := range ids {
			w := tos[k]
			nd := dv + d[id]
			if nd < dist[w] {
				dist[w] = nd
				parent[w] = id
				h.PushOrDecrease(w, nd)
			}
		}
	}
}

// ShortestPaths runs Dijkstra from src under the length function d and
// returns, for every node, the distance and the parent edge on a shortest
// path tree (deterministic tie-breaks by heap order). Used by the
// arbitrary-routing variants (Sec. V-B). It allocates fresh state per call;
// iterative callers should hold a DijkstraScratch instead.
func ShortestPaths(g *graph.Graph, src graph.NodeID, d graph.Lengths) (dist []float64, parent []graph.EdgeID) {
	n := g.NumNodes()
	dist = make([]float64, n)
	parent = make([]graph.EdgeID, n)
	sc := &DijkstraScratch{heap: graph.NewIndexedHeap(n)}
	sc.ShortestPathsInto(g, src, d, dist, parent)
	return dist, parent
}

// DijkstraRoute extracts the src->dst path from ShortestPaths output.
func DijkstraRoute(g *graph.Graph, src, dst graph.NodeID, parent []graph.EdgeID) (Path, error) {
	if src == dst {
		return Path{Nodes: []graph.NodeID{src}}, nil
	}
	return treePath(g, parent, src, dst)
}
