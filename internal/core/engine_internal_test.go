package core

import (
	"reflect"
	"testing"

	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/shard"
	"overcast/internal/topology"
)

// TestPlaneModeMapping pins each PlaneMode to the runner options the old
// DisablePlane / DisableRepair / DisableSubtreeRepair booleans produced. The
// determinism gate cannot catch a wrong mapping (every mode is bit-identical
// by design), so each mode's plane counters are also checked on a small
// arbitrary-routing MCF.
func TestPlaneModeMapping(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(60), rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.New(78).Perm(60)
	var sessions []*overlay.Session
	for i, span := range [][2]int{{0, 6}, {6, 10}, {10, 15}, {15, 18}, {18, 22}} {
		s, err := overlay.NewSession(i, perm[span[0]:span[1]], 100)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	p, err := NewProblem(net.Graph, sessions, RoutingArbitrary)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		mode  PlaneMode
		want  overlay.BatchOptions // Workers and Dynamic filled in below
		check func(m overlay.Metrics) bool
	}{
		{PlaneSubtree, overlay.BatchOptions{SharedPlane: true},
			func(m overlay.Metrics) bool { return m.PlaneSubtreeRepaired > 0 }},
		{PlaneRefill, overlay.BatchOptions{SharedPlane: true, DisableSubtreeRepair: true},
			func(m overlay.Metrics) bool { return m.PlaneSubtreeRepaired == 0 && m.PlaneSkipped > 0 }},
		{PlaneRound, overlay.BatchOptions{SharedPlane: true, DisableRepair: true},
			func(m overlay.Metrics) bool { return m.PlaneSkipped == 0 && m.PlaneSources > 0 }},
		{PlaneOff, overlay.BatchOptions{},
			func(m overlay.Metrics) bool { return m.PlaneSources == 0 }},
	} {
		e := Engine{Workers: 3, Plane: tc.mode, Shards: 2}
		bo, so := e.runnerOptions([]int{7}, nil, true)
		want := tc.want
		want.Workers, want.Dynamic = 3, true
		wantShard := &shard.Options{Shards: 2, Labels: []int{7}, Workers: 3, SharedPlane: want.SharedPlane,
			DisableRepair: want.DisableRepair, DisableSubtreeRepair: want.DisableSubtreeRepair, Dynamic: true}
		if bo != want || !reflect.DeepEqual(so, wantShard) {
			t.Fatalf("%v: options %+v / %+v, want %+v / %+v", tc.mode, bo, so, want, wantShard)
		}
		if _, so := e.runnerOptions(nil, &overlay.Plane{}, false); so != nil {
			t.Fatalf("%v: seeded runner was sharded", tc.mode)
		}

		res, err := MaxConcurrentFlow(p, MaxConcurrentFlowOptions{Epsilon: 0.2, Engine: Engine{Plane: tc.mode}})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Plane
		m.Merge(res.PrestepPlane)
		if !tc.check(m) {
			t.Fatalf("%v: plane counters %+v", tc.mode, m)
		}
	}
}
