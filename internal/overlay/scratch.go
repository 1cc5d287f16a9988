package overlay

import (
	"sort"

	"overcast/internal/graph"
	"overcast/internal/routing"
)

// Scratch is reusable per-worker state for MinTree computations: the Dijkstra
// scratch, Prim's buffers, the overlay weight matrix, and per-member
// shortest-path trees. The Garg–Könemann solvers call MinTree thousands of
// times per run; without a scratch every call re-allocates all of this state.
// A Scratch is bound to one graph and is not safe for concurrent use — pool
// one per worker (see core's MOST runner).
type Scratch struct {
	g  *graph.Graph
	sp *routing.DijkstraScratch

	// Prim buffers over the overlay complete graph, sized to the largest
	// session seen so far.
	inTree   []bool
	best     []float64
	bestFrom []int
	pairs    [][2]int

	// Flat s x s pairwise weight matrix for the fixed oracle.
	w []float64

	// Per-member shortest-path trees for the arbitrary oracle.
	dists   [][]float64
	parents [][]graph.EdgeID

	// Header-only variants of dists/parents whose entries point at borrowed
	// Plane rows (never at owned storage, so the owned buffers above are
	// never lost to an overwrite).
	rowDists   [][]float64
	rowParents [][]graph.EdgeID

	// Edge-id buffer for Use computation (sort + run-length encode).
	edgeIDs []int

	// Fixed-route tree memo: a fixed oracle's tree is fully determined by
	// the member pairs Prim picks, so trees are kept by (oracle, pair mask)
	// and handed out again on a repeat pick. Entries are fully precomputed
	// and never mutated. Cleared when it reaches treeMemoCap.
	memo map[treeMemoKey]*Tree
}

// treeMemoKey names one fixed-oracle tree: the oracle and the bitmask of
// chosen pairs over its n(n-1)/2 member pairs (see pairBit).
type treeMemoKey struct {
	o    *FixedOracle
	mask uint64
}

// treeMemoCap bounds each Scratch's tree memo, so long-lived scratches (the
// online allocator's, a warm runner's workers') stay bounded however many
// sessions pass through them. A full memo is cleared and refilled.
const treeMemoCap = 2048

// memoTree returns the memoised tree for (o, mask), if any.
func (sc *Scratch) memoTree(o *FixedOracle, mask uint64) *Tree {
	return sc.memo[treeMemoKey{o, mask}]
}

// storeTree memoises t under (o, mask). t's lazily computed fields are filled
// first, so the shared tree is immutable from here on.
func (sc *Scratch) storeTree(o *FixedOracle, mask uint64, t *Tree) {
	t.Use()
	t.KeyHash()
	t.Key()
	if sc.memo == nil {
		sc.memo = make(map[treeMemoKey]*Tree)
	} else if len(sc.memo) >= treeMemoCap {
		clear(sc.memo)
	}
	sc.memo[treeMemoKey{o, mask}] = t
}

// NewScratch returns a scratch bound to g. Buffers grow lazily with use, so
// creation is cheap.
func NewScratch(g *graph.Graph) *Scratch {
	return &Scratch{g: g}
}

// dijkstra lazily creates the shortest-path scratch.
func (sc *Scratch) dijkstra() *routing.DijkstraScratch {
	if sc.sp == nil {
		sc.sp = routing.NewDijkstraScratch(sc.g)
	}
	return sc.sp
}

// primBuffers returns Prim state sized for an n-vertex overlay.
func (sc *Scratch) primBuffers(n int) (inTree []bool, best []float64, bestFrom []int, pairs [][2]int) {
	if cap(sc.inTree) < n {
		sc.inTree = make([]bool, n)
		sc.best = make([]float64, n)
		sc.bestFrom = make([]int, n)
		sc.pairs = make([][2]int, n)
	}
	return sc.inTree[:n], sc.best[:n], sc.bestFrom[:n], sc.pairs[:0]
}

// weights returns a flat n x n matrix (zeroing is the caller's concern: the
// oracles overwrite every cell they read).
func (sc *Scratch) weights(n int) []float64 {
	if cap(sc.w) < n*n {
		sc.w = make([]float64, n*n)
	}
	return sc.w[:n*n]
}

// memberTrees returns k distance and parent arrays over the graph's nodes,
// for the arbitrary oracle's per-member Dijkstra results.
func (sc *Scratch) memberTrees(k int) ([][]float64, [][]graph.EdgeID) {
	n := sc.g.NumNodes()
	for len(sc.dists) < k {
		sc.dists = append(sc.dists, make([]float64, n))
		sc.parents = append(sc.parents, make([]graph.EdgeID, n))
	}
	return sc.dists[:k], sc.parents[:k]
}

// memberRows returns k slice-header slots for borrowed per-member SSSP rows
// (Plane reads). Entries are stale from previous calls; the caller overwrites
// all k before use.
func (sc *Scratch) memberRows(k int) ([][]float64, [][]graph.EdgeID) {
	for len(sc.rowDists) < k {
		sc.rowDists = append(sc.rowDists, nil)
		sc.rowParents = append(sc.rowParents, nil)
	}
	return sc.rowDists[:k], sc.rowParents[:k]
}

// primInto runs Prim's algorithm over the complete graph on n vertices using
// the scratch's buffers, returning scratch-owned vertex pairs (valid until
// the next primInto call). Semantics match primComplete exactly.
func primInto(sc *Scratch, n int, weight func(i, j int) float64) [][2]int {
	const inf = 1e308
	inTree, best, bestFrom, pairs := sc.primBuffers(n)
	for i := 0; i < n; i++ {
		inTree[i] = false
		best[i] = inf
		bestFrom[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		best[j] = weight(0, j)
		bestFrom[j] = 0
	}
	for added := 1; added < n; added++ {
		pick := -1
		for j := 0; j < n; j++ {
			if !inTree[j] && (pick < 0 || best[j] < best[pick]) {
				pick = j
			}
		}
		inTree[pick] = true
		pairs = append(pairs, [2]int{bestFrom[pick], pick})
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if w := weight(pick, j); w < best[j] {
					best[j] = w
					bestFrom[j] = pick
				}
			}
		}
	}
	sc.pairs = pairs[:cap(pairs)] // retain any growth for reuse
	return pairs
}

// newSortedTree builds a Tree from pairs already normalized to i<j with
// routes oriented member[i] -> member[j]. It sorts pairs and routes together
// (the canonical order NewTree produces) and precomputes the edge-use
// multiset with scratch buffers instead of a per-tree map. pairs and routes
// must be fresh slices — the tree takes ownership.
func newSortedTree(sc *Scratch, sessionID int, pairs [][2]int, routes []routing.Path) *Tree {
	sort.Sort(&pairRouteSort{pairs: pairs, routes: routes})
	t := &Tree{SessionID: sessionID, Pairs: pairs, Routes: routes}
	t.use = computeUse(sc, routes)
	return t
}

// pairRouteSort sorts overlay pairs lexicographically, carrying routes along.
type pairRouteSort struct {
	pairs  [][2]int
	routes []routing.Path
}

func (s *pairRouteSort) Len() int { return len(s.pairs) }
func (s *pairRouteSort) Less(a, b int) bool {
	pa, pb := s.pairs[a], s.pairs[b]
	if pa[0] != pb[0] {
		return pa[0] < pb[0]
	}
	return pa[1] < pb[1]
}
func (s *pairRouteSort) Swap(a, b int) {
	s.pairs[a], s.pairs[b] = s.pairs[b], s.pairs[a]
	s.routes[a], s.routes[b] = s.routes[b], s.routes[a]
}

// computeUse produces the sorted n_e(t) multiplicities of routes with a
// single allocation (the result), using the scratch's id buffer for the
// sort + run-length encoding. Output is identical to Tree.Use's lazy path.
func computeUse(sc *Scratch, routes []routing.Path) []EdgeUse {
	ids := sc.edgeIDs[:0]
	for _, r := range routes {
		ids = append(ids, r.Edges...)
	}
	sc.edgeIDs = ids
	if len(ids) == 0 {
		return []EdgeUse{}
	}
	sort.Ints(ids)
	distinct := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			distinct++
		}
	}
	use := make([]EdgeUse, 0, distinct)
	run := 1
	for i := 1; i <= len(ids); i++ {
		if i < len(ids) && ids[i] == ids[i-1] {
			run++
			continue
		}
		use = append(use, EdgeUse{Edge: ids[i-1], Count: run})
		run = 1
	}
	return use
}
