// Package overlay models multicast sessions and the overlay spanning trees
// that carry their traffic.
//
// A session S_i is a set of end hosts (members), the first being the data
// source. Data is disseminated along overlay trees: spanning trees of the
// complete graph on the members, where each overlay edge is realized by a
// unicast route through the physical network. A physical edge e may be
// traversed by several overlay edges of the same tree; n_e(t) counts that
// multiplicity, and it is n_e(t) — not 1 — that multiplies the tree's rate in
// every capacity constraint (the paper's "link correlation").
package overlay

import (
	"fmt"
	"sort"
	"strconv"

	"overcast/internal/graph"
	"overcast/internal/routing"
)

// Session is one data dissemination session (a commodity in the
// multicommodity-flow formulation).
type Session struct {
	ID      int            // dense session index, 0-based
	Members []graph.NodeID // Members[0] is the source
	Demand  float64        // dem(i) > 0
}

// NewSession validates and constructs a session. Members must be distinct
// and at least two (a source and one receiver).
func NewSession(id int, members []graph.NodeID, demand float64) (*Session, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("overlay: session %d needs >=2 members, got %d", id, len(members))
	}
	if demand <= 0 {
		return nil, fmt.Errorf("overlay: session %d has non-positive demand %v", id, demand)
	}
	seen := make(map[graph.NodeID]bool, len(members))
	for _, m := range members {
		if seen[m] {
			return nil, fmt.Errorf("overlay: session %d repeats member %d", id, m)
		}
		seen[m] = true
	}
	return &Session{ID: id, Members: append([]graph.NodeID(nil), members...), Demand: demand}, nil
}

// Source returns the data source of the session.
func (s *Session) Source() graph.NodeID { return s.Members[0] }

// Size returns |S_i|, the number of members.
func (s *Session) Size() int { return len(s.Members) }

// Receivers returns |S_i| - 1.
func (s *Session) Receivers() int { return len(s.Members) - 1 }

// EdgeUse records how many times a tree traverses one physical edge.
type EdgeUse struct {
	Edge  graph.EdgeID
	Count int
}

// Tree is one overlay spanning tree of a session, with its physical
// realization.
type Tree struct {
	SessionID int
	// Pairs are the overlay edges as (i,j) member-index pairs with i<j,
	// sorted lexicographically; exactly Size-1 of them, forming a spanning
	// tree over the member indices.
	Pairs [][2]int
	// Routes[k] is the physical unicast route realizing Pairs[k], oriented
	// from member Pairs[k][0] to member Pairs[k][1].
	Routes []routing.Path

	use        []EdgeUse // lazily computed, sorted by Edge
	key        string    // lazily computed canonical key
	keyHash    uint64    // lazily computed canonical key digest
	hasKeyHash bool
}

// NewTree builds a tree from overlay pairs and their routes, canonicalizing
// pair order. len(pairs) must equal len(routes).
func NewTree(sessionID int, pairs [][2]int, routes []routing.Path) *Tree {
	if len(pairs) != len(routes) {
		panic("overlay: pairs/routes length mismatch")
	}
	t := &Tree{SessionID: sessionID, Pairs: make([][2]int, len(pairs)), Routes: make([]routing.Path, len(routes))}
	idx := make([]int, len(pairs))
	for i := range idx {
		idx[i] = i
	}
	norm := make([][2]int, len(pairs))
	normRoutes := make([]routing.Path, len(pairs))
	for i, p := range pairs {
		if p[0] > p[1] {
			norm[i] = [2]int{p[1], p[0]}
			normRoutes[i] = routes[i].Reverse()
		} else {
			norm[i] = p
			normRoutes[i] = routes[i]
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := norm[idx[a]], norm[idx[b]]
		if pa[0] != pb[0] {
			return pa[0] < pb[0]
		}
		return pa[1] < pb[1]
	})
	for out, in := range idx {
		t.Pairs[out] = norm[in]
		t.Routes[out] = normRoutes[in]
	}
	return t
}

// Use returns the physical-edge multiplicities n_e(t), sorted by edge id.
// The returned slice must not be modified.
func (t *Tree) Use() []EdgeUse {
	if t.use == nil {
		counts := make(map[graph.EdgeID]int)
		for _, r := range t.Routes {
			for _, id := range r.Edges {
				counts[id]++
			}
		}
		use := make([]EdgeUse, 0, len(counts))
		for id, c := range counts {
			use = append(use, EdgeUse{Edge: id, Count: c})
		}
		sort.Slice(use, func(a, b int) bool { return use[a].Edge < use[b].Edge })
		t.use = use
	}
	return t.use
}

// Key returns a canonical identity for the tree: the overlay pairs plus the
// physical edges of each route. Two trees with identical keys route
// identical traffic, under fixed or arbitrary routing alike.
func (t *Tree) Key() string {
	if t.key == "" {
		// Append digits in place: strconv.Itoa would allocate a string for
		// every edge id of 100 or more.
		b := make([]byte, 0, 64)
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(t.SessionID), 10)
		for k, p := range t.Pairs {
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(p[0]), 10)
			b = append(b, '-')
			b = strconv.AppendInt(b, int64(p[1]), 10)
			b = append(b, ':')
			for _, e := range t.Routes[k].Edges {
				b = strconv.AppendInt(b, int64(e), 10)
				b = append(b, ',')
			}
		}
		t.key = string(b)
	}
	return t.key
}

// FNV-1a, processing one uint64 as eight little-endian bytes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// KeyHash returns a 64-bit FNV-1a digest of the same canonical identity
// that Key renders: session id, then per overlay pair its member indices,
// route hop count, and route edge ids. The integer sequence decodes
// uniquely (hop counts delimit the variable-length routes), so two trees
// share a KeyHash only on a genuine 2^-64 hash collision. Unlike Key it
// allocates nothing, which is why the solver flow accumulators — the
// per-iteration hot path — index trees by KeyHash.
func (t *Tree) KeyHash() uint64 {
	if !t.hasKeyHash {
		h := fnvUint64(fnvOffset64, uint64(t.SessionID))
		for k, p := range t.Pairs {
			h = fnvUint64(h, uint64(p[0]))
			h = fnvUint64(h, uint64(p[1]))
			h = fnvUint64(h, uint64(len(t.Routes[k].Edges)))
			for _, e := range t.Routes[k].Edges {
				h = fnvUint64(h, uint64(e))
			}
		}
		t.keyHash = h
		t.hasKeyHash = true
	}
	return t.keyHash
}

// LengthUnder returns Σ_e n_e(t)·d_e, the (unnormalized) dual length of the
// tree.
func (t *Tree) LengthUnder(d graph.Lengths) float64 {
	total := 0.0
	for _, u := range t.Use() {
		total += float64(u.Count) * d[u.Edge]
	}
	return total
}

// Bottleneck returns min_e c_e/n_e(t): the largest rate the tree can carry
// alone on an idle network.
func (t *Tree) Bottleneck(g *graph.Graph) float64 {
	min := -1.0
	for _, u := range t.Use() {
		v := g.Edges[u.Edge].Capacity / float64(u.Count)
		if min < 0 || v < min {
			min = v
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// TotalHops returns the total number of physical hops across all routes
// (Σ_e n_e(t)); a cost measure of the tree.
func (t *Tree) TotalHops() int {
	total := 0
	for _, u := range t.Use() {
		total += u.Count
	}
	return total
}

// Validate checks that the tree is a spanning tree over the session's
// members and that every route joins the right physical endpoints.
func (t *Tree) Validate(g *graph.Graph, s *Session) error {
	if t.SessionID != s.ID {
		return fmt.Errorf("overlay: tree session %d != %d", t.SessionID, s.ID)
	}
	n := s.Size()
	if len(t.Pairs) != n-1 {
		return fmt.Errorf("overlay: tree has %d overlay edges for %d members", len(t.Pairs), n)
	}
	uf := graph.NewUnionFind(n)
	for k, p := range t.Pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n || p[0] == p[1] {
			return fmt.Errorf("overlay: bad pair %v", p)
		}
		if !uf.Union(p[0], p[1]) {
			return fmt.Errorf("overlay: pairs contain a cycle at %v", p)
		}
		r := t.Routes[k]
		if err := r.Validate(g); err != nil {
			return fmt.Errorf("overlay: route %d: %w", k, err)
		}
		if r.Src() != s.Members[p[0]] || r.Dst() != s.Members[p[1]] {
			return fmt.Errorf("overlay: route %d joins %d-%d, want members %d-%d",
				k, r.Src(), r.Dst(), s.Members[p[0]], s.Members[p[1]])
		}
		if r.Hops() == 0 {
			return fmt.Errorf("overlay: route %d is empty (members %v coincide?)", k, p)
		}
	}
	if uf.Count() != 1 {
		return fmt.Errorf("overlay: pairs do not span the session")
	}
	return nil
}
