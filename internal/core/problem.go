// Package core implements the paper's four algorithms:
//
//   - MaxFlow (Table I): FPTAS for the overlay maximum multicommodity flow
//     problem M1 — maximize weighted aggregate session throughput.
//   - MaxConcurrentFlow (Table III): FPTAS for the overlay maximum
//     concurrent flow problem M2 — maximize the common demand-satisfaction
//     ratio (weighted max-min fairness).
//   - RandomMinCongestion (Table V): randomized rounding of a fractional
//     solution onto a bounded number of trees.
//   - OnlineMinCongestion (Table VI): online unsplittable tree construction
//     with O(log |E|) congestion competitiveness.
//
// All four share one mechanism: assign a length d_e to every physical edge,
// repeatedly query each session's minimum overlay spanning tree under d
// (overlay.TreeOracle), route along it, and multiplicatively inflate the
// lengths of the edges it used. Fixed-IP versus arbitrary routing (Sec. V)
// is purely the oracle's concern.
package core

import (
	"fmt"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/routing"
)

// RoutingMode selects how overlay edges map to physical routes.
type RoutingMode int

const (
	// RoutingIP uses fixed shortest-path IP routes (Sec. II).
	RoutingIP RoutingMode = iota
	// RoutingArbitrary recomputes shortest routes under the current length
	// function every oracle call (Sec. V).
	RoutingArbitrary
)

// String implements fmt.Stringer.
func (m RoutingMode) String() string {
	switch m {
	case RoutingIP:
		return "ip"
	case RoutingArbitrary:
		return "arbitrary"
	default:
		return fmt.Sprintf("RoutingMode(%d)", int(m))
	}
}

// Problem is a multicommodity overlay dissemination instance: a physical
// network plus k sessions with their tree oracles.
type Problem struct {
	G        *graph.Graph
	Sessions []*overlay.Session
	Oracles  []overlay.TreeOracle
	Mode     RoutingMode

	// MaxReceivers is |Smax|-1, the receiver count of the largest session.
	MaxReceivers int
	// U is the length (hops) of the longest unicast route any oracle can
	// use; it parametrizes the FPTAS's delta.
	U int
	// RouteWeights are the static weights the fixed IP routes were computed
	// under (nil = hop count); retained so derived problems (e.g. the MCF
	// surplus pass's residual problem) route identically.
	RouteWeights graph.Lengths
}

// NewProblem validates sessions against the graph, builds hop-count IP
// routes between the members of each session, and instantiates one oracle
// per session in the requested mode.
func NewProblem(g *graph.Graph, sessions []*overlay.Session, mode RoutingMode) (*Problem, error) {
	return NewProblemWeighted(g, sessions, mode, nil)
}

// NewProblemWeighted is NewProblem with static per-edge routing weights for
// the fixed IP routes (e.g. BRITE propagation delays). nil weights fall back
// to hop-count routing. The weights affect only which fixed route each node
// pair uses — the solvers' length functions d_e are independent state.
func NewProblemWeighted(g *graph.Graph, sessions []*overlay.Session, mode RoutingMode, routeWeights graph.Lengths) (*Problem, error) {
	if g == nil || g.NumEdges() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("core: no sessions")
	}
	groups := make([][]graph.NodeID, len(sessions))
	for i, s := range sessions {
		if s.ID != i {
			return nil, fmt.Errorf("core: session %d has ID %d; IDs must be dense and ordered", i, s.ID)
		}
		for _, m := range s.Members {
			if m < 0 || m >= g.NumNodes() {
				return nil, fmt.Errorf("core: session %d member %d outside graph", i, m)
			}
		}
		groups[i] = s.Members
	}
	// Fixed routes are only needed in IP mode, and only between members of
	// one session; the arbitrary oracle recomputes routes under the solver's
	// lengths, so building them here would be pure constructor waste.
	var rt *routing.MemberRoutes
	if mode == RoutingIP {
		rt = routing.NewMemberRoutes(g, routeWeights, groups)
	}

	p := &Problem{G: g, Sessions: sessions, Mode: mode, RouteWeights: routeWeights}
	for _, s := range sessions {
		var o overlay.TreeOracle
		var err error
		switch mode {
		case RoutingIP:
			o, err = overlay.NewFixedOracle(g, rt, s)
		case RoutingArbitrary:
			o, err = overlay.NewArbitraryOracle(g, s)
		default:
			err = fmt.Errorf("core: unknown routing mode %d", mode)
		}
		if err != nil {
			return nil, err
		}
		p.Oracles = append(p.Oracles, o)
		if r := s.Receivers(); r > p.MaxReceivers {
			p.MaxReceivers = r
		}
		if h := o.MaxRouteHops(); h > p.U {
			p.U = h
		}
	}
	if p.U < 1 {
		p.U = 1
	}
	return p, nil
}

// K returns the number of sessions (commodities).
func (p *Problem) K() int { return len(p.Sessions) }

// Weight returns the M1 objective weight (|S_i|-1)/(|Smax|-1) of session i.
func (p *Problem) Weight(i int) float64 {
	return float64(p.Sessions[i].Receivers()) / float64(p.MaxReceivers)
}
