// Package baseline implements the dissemination strategies the paper's
// introduction argues against, for quantitative comparison with the
// multi-tree optimum:
//
//   - SingleTree: the classic one-tree-per-session overlay multicast (leaf
//     bandwidth goes unused);
//   - SplitStream: an interior-node-disjoint forest in the spirit of
//     SplitStream [2] — one stripe per member, each member the sole interior
//     node of its stripe;
//   - RandomForest: a given number of uniformly random spanning trees per
//     session (Prüfer sampling), a strawman for tree selection quality.
//
// All baselines produce exactly feasible core.Solutions via the same
// per-session congestion scaling used by the online algorithm (rate_i =
// dem(i)/l^i_max), so comparisons against MaxFlow/MaxConcurrentFlow are
// apples-to-apples.
package baseline

import (
	"fmt"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
)

// fixedOracles rebuilds fixed-routing oracles for p's sessions (baselines
// always route over fixed IP paths; that is what the systems they model do).
func fixedOracles(p *core.Problem) ([]*overlay.FixedOracle, error) {
	groups := make([][]graph.NodeID, len(p.Sessions))
	for i, s := range p.Sessions {
		groups[i] = s.Members
	}
	rt := routing.NewMemberRoutes(p.G, nil, groups)
	oracles := make([]*overlay.FixedOracle, len(p.Sessions))
	for i, s := range p.Sessions {
		o, err := overlay.NewFixedOracle(p.G, rt, s)
		if err != nil {
			return nil, err
		}
		oracles[i] = o
	}
	return oracles, nil
}

// finalize turns per-session tree sets (with per-tree demand shares) into an
// exactly feasible solution by scaling each session's rate by its maximum
// congestion at full demand, mirroring Online-MinCongestion's recipe.
func finalize(p *core.Problem, trees [][]*overlay.Tree, shares [][]float64) (*core.Solution, error) {
	load := make([]float64, p.G.NumEdges())
	for i, ts := range trees {
		for j, t := range ts {
			for _, u := range t.Use() {
				load[u.Edge] += float64(u.Count) * shares[i][j] * p.Sessions[i].Demand / p.G.Edges[u.Edge].Capacity
			}
		}
	}
	sol := &core.Solution{G: p.G, Sessions: p.Sessions, Flows: make([][]core.TreeFlow, p.K())}
	for i, ts := range trees {
		limax := 0.0
		for _, t := range ts {
			for _, u := range t.Use() {
				if l := load[u.Edge]; l > limax {
					limax = l
				}
			}
		}
		scale := 1.0
		if limax > 0 {
			scale = 1 / limax
		}
		for j, t := range ts {
			rate := shares[i][j] * p.Sessions[i].Demand * scale
			if rate > 0 {
				sol.Flows[i] = append(sol.Flows[i], core.TreeFlow{Tree: t, Rate: rate})
			}
		}
	}
	return sol, nil
}

// SingleTree assigns every session one minimum-total-hop overlay tree (the
// MOST under uniform lengths) and scales to feasibility.
func SingleTree(p *core.Problem) (*core.Solution, error) {
	oracles, err := fixedOracles(p)
	if err != nil {
		return nil, err
	}
	unit := graph.NewLengths(p.G, 1)
	trees := make([][]*overlay.Tree, p.K())
	shares := make([][]float64, p.K())
	for i, o := range oracles {
		t, err := o.MinTree(unit)
		if err != nil {
			return nil, fmt.Errorf("baseline: single tree session %d: %w", i, err)
		}
		trees[i] = []*overlay.Tree{t}
		shares[i] = []float64{1}
	}
	return finalize(p, trees, shares)
}

// SplitStream builds, for every session of size n, n interior-node-disjoint
// stripes: stripe h is the overlay star centered at member h (member h is
// its only interior node). The session demand is split equally across
// stripes. Sessions of size 2 degenerate to a single direct tree.
func SplitStream(p *core.Problem) (*core.Solution, error) {
	oracles, err := fixedOracles(p)
	if err != nil {
		return nil, err
	}
	trees := make([][]*overlay.Tree, p.K())
	shares := make([][]float64, p.K())
	for i, o := range oracles {
		n := p.Sessions[i].Size()
		stripes := n
		if n == 2 {
			stripes = 1
		}
		for h := 0; h < stripes; h++ {
			pairs := make([][2]int, 0, n-1)
			for v := 0; v < n; v++ {
				if v != h {
					pairs = append(pairs, [2]int{min(h, v), max(h, v)})
				}
			}
			trees[i] = append(trees[i], overlay.TreeFromPairs(o, pairs))
			shares[i] = append(shares[i], 1/float64(stripes))
		}
	}
	return finalize(p, trees, shares)
}

// RandomForest assigns every session m uniformly random labeled spanning
// trees (independent Prüfer samples, deduplicated) with equal demand shares.
func RandomForest(p *core.Problem, m int, r *rng.RNG) (*core.Solution, error) {
	if m < 1 {
		return nil, fmt.Errorf("baseline: RandomForest needs m>=1, got %d", m)
	}
	oracles, err := fixedOracles(p)
	if err != nil {
		return nil, err
	}
	trees := make([][]*overlay.Tree, p.K())
	shares := make([][]float64, p.K())
	for i, o := range oracles {
		n := p.Sessions[i].Size()
		seen := map[string]bool{}
		var picked []*overlay.Tree
		for draw := 0; draw < m; draw++ {
			seq := make([]int, n-2)
			for j := range seq {
				seq[j] = r.Intn(n)
			}
			pairs, err := overlay.PruferDecode(seq, n)
			if err != nil {
				return nil, err
			}
			t := overlay.TreeFromPairs(o, pairs)
			if !seen[t.Key()] {
				seen[t.Key()] = true
				picked = append(picked, t)
			}
		}
		trees[i] = picked
		shares[i] = make([]float64, len(picked))
		for j := range picked {
			shares[i][j] = 1 / float64(len(picked))
		}
	}
	return finalize(p, trees, shares)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
