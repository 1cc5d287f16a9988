package routing

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"

	"overcast/internal/graph"
	"overcast/internal/par"
)

// This file holds the one search driver both kinds of fixed route table are
// built on. Roots fan out over a worker pool; each worker owns one reusable
// search state, so nothing is allocated per root, and results land in
// root-indexed slots, so tables never depend on scheduling. A root with a
// target set stops searching as soon as every target is settled — popped
// for Dijkstra, discovered for BFS. A settled node's parent edge is final
// and every node on its root path settled before it, so each route read
// from an early-stopped tree is exactly the full tree's route.

// targetSet marks the nodes a search must settle before it may stop.
type targetSet struct {
	mark []uint32 // mark[v] == gen: v is a pending target
	gen  uint32
	left int
}

// reset marks the distinct targets other than root as pending. With none
// pending, settle never reports the last one and the search runs in full.
func (ts *targetSet) reset(n int, root graph.NodeID, targets []graph.NodeID) {
	if len(ts.mark) < n {
		ts.mark = make([]uint32, n)
		ts.gen = 0
	}
	ts.gen++
	if ts.gen == 0 { // wrapped: stale marks could alias the new generation
		clear(ts.mark)
		ts.gen = 1
	}
	ts.left = 0
	for _, v := range targets {
		if v != root && ts.mark[v] != ts.gen {
			ts.mark[v] = ts.gen
			ts.left++
		}
	}
}

// settle records that v is settled and reports whether it was the last
// pending target.
func (ts *targetSet) settle(v graph.NodeID) bool {
	if ts.mark[v] != ts.gen {
		return false
	}
	ts.mark[v] = 0
	ts.left--
	return ts.left == 0
}

// treeSearch is one worker's reusable search state: a DijkstraScratch under
// static weights, or a BFS queue for hop count (w == nil).
type treeSearch struct {
	g      *graph.Graph
	w      graph.Lengths
	sc     *DijkstraScratch
	queue  []graph.NodeID
	parent []graph.EdgeID
	ts     targetSet
}

func newTreeSearch(g *graph.Graph, w graph.Lengths) *treeSearch {
	s := &treeSearch{g: g, w: w}
	if w != nil {
		s.sc = NewDijkstraScratch(g)
		s.parent = s.sc.parent
	} else {
		s.parent = make([]graph.EdgeID, g.NumNodes())
		s.queue = make([]graph.NodeID, 0, g.NumNodes())
	}
	return s
}

// search returns root's shortest-path tree as parent edges, valid until the
// next call. With no targets the tree is complete; otherwise only the
// entries of the targets and of the nodes on their root paths are
// meaningful.
func (s *treeSearch) search(root graph.NodeID, targets []graph.NodeID) []graph.EdgeID {
	var ts *targetSet
	if len(targets) > 0 {
		ts = &s.ts
		ts.reset(s.g.NumNodes(), root, targets)
	}
	if s.w != nil {
		s.sc.dijkstra(s.g, root, s.w, s.sc.dist, s.parent, ts)
	} else {
		s.bfs(root, ts)
	}
	return s.parent
}

// bfs is the hop-count search. Neighbour edges are scanned in EdgeID order,
// which yields deterministic tie-breaking.
func (s *treeSearch) bfs(root graph.NodeID, ts *targetSet) {
	parent := s.parent
	for i := range parent {
		parent[i] = -1
	}
	q := append(s.queue[:0], root)
search:
	for head := 0; head < len(q); head++ {
		ids, tos := s.g.Neighbors(q[head])
		for k, id := range ids {
			w := tos[k]
			if w == root || parent[w] >= 0 {
				continue
			}
			parent[w] = id
			if ts != nil && ts.settle(w) {
				break search
			}
			q = append(q, w)
		}
	}
	s.queue = q[:0]
}

// searchTrees runs one search per root (targets may be nil: full trees) on
// at most workers goroutines, then calls visit(i, parent) with root i's
// tree. visit runs concurrently for distinct i, must write only to
// i-indexed slots, and must not keep parent, which the worker reuses.
func searchTrees(g *graph.Graph, w graph.Lengths, roots []graph.NodeID, targets [][]graph.NodeID, workers int, visit func(i int, parent []graph.EdgeID)) {
	pool := make([]*treeSearch, max(1, min(workers, len(roots))))
	par.For(workers, len(roots), func(worker, i int) {
		s := pool[worker]
		if s == nil {
			s = newTreeSearch(g, w)
			pool[worker] = s
		}
		var tg []graph.NodeID
		if targets != nil {
			tg = targets[i]
		}
		visit(i, s.search(roots[i], tg))
	})
}

// MemberRoutes is a fixed route table restricted to the member pairs inside
// given groups (a solver's sessions): the only routes its FixedOracles read.
// Each pair's route is exactly the one IPRoutes.Route returns — read from the
// smaller endpoint's tree — but only the pair paths are kept, so memory is
// O(pairs × hops) rather than O(members × nodes).
type MemberRoutes struct {
	pairs  [][2]graph.NodeID // sorted, distinct (u, v) with u < v
	routes []Path            // routes[k] runs pairs[k][0] -> pairs[k][1]
	errs   []error           // errs[k] != nil: pairs[k] is unreachable
}

// NewMemberRoutes computes the fixed routes between every two members of
// each group under static weights w, or under hop count when w is nil. Only
// nodes that are the smaller endpoint of some within-group pair run a
// search, and each search stops once that node's partners are settled.
// Searches fan out over GOMAXPROCS workers.
func NewMemberRoutes(g *graph.Graph, w graph.Lengths, groups [][]graph.NodeID) *MemberRoutes {
	if w != nil {
		checkWeights(g, w)
	}
	return newMemberRoutes(g, w, groups, runtime.GOMAXPROCS(0))
}

func newMemberRoutes(g *graph.Graph, w graph.Lengths, groups [][]graph.NodeID, workers int) *MemberRoutes {
	var pairs [][2]graph.NodeID
	for _, grp := range groups {
		for i, u := range grp {
			for _, v := range grp[i+1:] {
				if u != v {
					pairs = append(pairs, [2]graph.NodeID{min(u, v), max(u, v)})
				}
			}
		}
	}
	slices.SortFunc(pairs, comparePairs)
	pairs = slices.Compact(pairs)

	// One search per distinct smaller endpoint; its targets are its partners.
	var roots []graph.NodeID
	var targets [][]graph.NodeID
	var starts []int
	for k := 0; k < len(pairs); k++ {
		if k == 0 || pairs[k][0] != pairs[k-1][0] {
			roots = append(roots, pairs[k][0])
			targets = append(targets, nil)
			starts = append(starts, k)
		}
		last := len(targets) - 1
		targets[last] = append(targets[last], pairs[k][1])
	}
	t := &MemberRoutes{pairs: pairs, routes: make([]Path, len(pairs)), errs: make([]error, len(pairs))}
	searchTrees(g, w, roots, targets, workers, func(i int, parent []graph.EdgeID) {
		for j, v := range targets[i] {
			k := starts[i] + j
			t.routes[k], t.errs[k] = treePath(g, parent, roots[i], v)
		}
	})
	return t
}

func comparePairs(a, b [2]graph.NodeID) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// Route returns the fixed route from u to v, which must be two members of
// one group (or equal). Route(v,u) is Route(u,v) reversed. It panics for a
// pair outside every group and returns an error if v is unreachable from u.
func (t *MemberRoutes) Route(u, v graph.NodeID) (Path, error) {
	if u == v {
		return Path{Nodes: []graph.NodeID{u}}, nil
	}
	k, ok := slices.BinarySearchFunc(t.pairs, [2]graph.NodeID{min(u, v), max(u, v)}, comparePairs)
	if !ok {
		panic(fmt.Sprintf("routing: no route for %d-%d: not members of one group", u, v))
	}
	if t.errs[k] != nil || u < v {
		return t.routes[k], t.errs[k]
	}
	return t.routes[k].Reverse(), nil
}
