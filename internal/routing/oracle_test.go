package routing_test

import (
	"strings"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/routing"
)

// TestFixedOracleReportsUnreachableMembers checks that a session split across
// components still fails oracle construction with the member pair named, as
// it did over full route trees.
func TestFixedOracleReportsUnreachableMembers(t *testing.T) {
	b := graph.NewBuilder(4)
	for _, e := range [][2]graph.NodeID{{0, 1}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	s, err := overlay.NewSession(0, []graph.NodeID{3, 1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []graph.Lengths{nil, graph.NewLengths(g, 1)} {
		_, err := overlay.NewFixedOracle(g, routing.NewMemberRoutes(g, w, [][]graph.NodeID{s.Members}), s)
		if err == nil || !strings.Contains(err.Error(), "members 3,1:") || !strings.Contains(err.Error(), "unreachable") {
			t.Fatalf("NewFixedOracle error = %v, want members 3,1 unreachable", err)
		}
		_, want := overlay.NewFixedOracle(g, routing.NewIPRoutes(g, s.Members), s)
		if want == nil || err.Error() != want.Error() {
			t.Fatalf("member-route error %q, full-table error %q", err, want)
		}
	}
}
