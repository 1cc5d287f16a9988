package core_test

import (
	"fmt"
	"testing"

	"overcast/internal/core"
	"overcast/internal/exact"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
)

// warmOracle builds a per-session oracle matching mode, the way a caller of
// Warm.Join would (per-session fixed route tables are identical to the dense
// problem's shared table: a pair's route depends only on the graph and the
// Dijkstra source, not on which other members share the table).
func warmOracle(t testing.TB, g *graph.Graph, s *overlay.Session, mode core.RoutingMode) overlay.TreeOracle {
	t.Helper()
	var o overlay.TreeOracle
	var err error
	if mode == core.RoutingArbitrary {
		o, err = overlay.NewArbitraryOracle(g, s)
	} else {
		rt := routing.NewIPRoutes(g, s.Members)
		o, err = overlay.NewFixedOracle(g, rt, s)
	}
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func warmJoin(t testing.TB, w *core.Warm, g *graph.Graph, id int, members []graph.NodeID, demand float64, mode core.RoutingMode) {
	t.Helper()
	s, err := overlay.NewSession(id, members, demand)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Join(s, warmOracle(t, g, s, mode)); err != nil {
		t.Fatal(err)
	}
}

// solutionFingerprint renders every session's tree rates bitwise.
func solutionFingerprint(sol *core.Solution) string {
	out := ""
	for i := range sol.Sessions {
		out += fmt.Sprintf("s%d:", i)
		for _, tf := range sol.Flows[i] {
			out += fmt.Sprintf(" %x@%.17g", tf.Tree.KeyHash(), tf.Rate)
		}
		out += "\n"
	}
	return out
}

func warmTestInstance(t testing.TB, seed uint64) (*graph.Graph, [][]graph.NodeID) {
	t.Helper()
	r := rng.New(seed)
	net, err := topology.Waxman(topology.DefaultWaxman(25), r)
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(25)
	memberSets := [][]graph.NodeID{
		{perm[0], perm[1], perm[2], perm[3]},
		{perm[4], perm[5], perm[6]},
		{perm[7], perm[8], perm[9]},
	}
	return net.Graph, memberSets
}

// A snapshot taken right after the anchor must be bit-identical to the cold
// MaxConcurrentFlow solution over the same sessions.
func TestWarmSnapshotMatchesColdAnchorBitwise(t *testing.T) {
	const eps = 0.1
	g, memberSets := warmTestInstance(t, 71)
	p := buildProblem(t, g, memberSets, nil, core.RoutingIP)
	res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}

	w, err := core.NewWarm(g, core.RoutingIP, nil, core.WarmOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, members := range memberSets {
		warmJoin(t, w, g, i, members, 1, core.RoutingIP)
	}
	sol, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionFingerprint(sol), solutionFingerprint(res.Solution); got != want {
		t.Fatalf("anchor snapshot differs from cold solve:\n%s\nvs\n%s", got, want)
	}
	if st := w.Stats(); st.ColdSolves != 1 || st.WarmRefreshes != 0 {
		t.Fatalf("stats %+v, want exactly one cold solve", st)
	}
}

// Warm catch-up after a join must stay exactly feasible and within the same
// empirical (1-3eps) band of the exact LP optimum that the cold solver is
// held to.
func TestWarmJoinQualityVsExact(t *testing.T) {
	const eps = 0.05
	g, memberSets := warmTestInstance(t, 72)
	w, err := core.NewWarm(g, core.RoutingIP, nil, core.WarmOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Anchor over the first two sessions, then warm-join the third.
	for i := 0; i < 2; i++ {
		warmJoin(t, w, g, i, memberSets[i], 1, core.RoutingIP)
	}
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	warmJoin(t, w, g, 2, memberSets[2], 1, core.RoutingIP)
	sol, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.ColdSolves != 1 || st.WarmRefreshes != 1 {
		t.Fatalf("stats %+v, want 1 cold + 1 warm", st)
	}
	if err := sol.CheckFeasible(1e-9); err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, g, memberSets, nil, core.RoutingIP)
	ex, err := exact.MaxConcurrentFlow(g, exactOracles(t, p), 6)
	if err != nil {
		t.Fatal(err)
	}
	lambda := sol.ConcurrentRatio()
	if lambda > ex.Value+1e-6 {
		t.Fatalf("warm lambda %v exceeds optimum %v", lambda, ex.Value)
	}
	if lambda < (1-3*eps)*ex.Value-1e-9 {
		t.Fatalf("warm lambda %v below (1-3eps)*%v", lambda, ex.Value)
	}
	// The headline warm-quality contract: within (1+eps) of the cold solve
	// over the same population.
	cold, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if lambda < cold.Lambda/(1+eps)-1e-9 {
		t.Fatalf("warm lambda %v below cold %v / (1+eps)", lambda, cold.Lambda)
	}
}

// After a departure the rollback + re-grow phases must restore the stop
// criterion and keep the allocation within the quality band for the
// surviving sessions.
func TestWarmLeaveRegrowQualityVsExact(t *testing.T) {
	const eps = 0.05
	g, memberSets := warmTestInstance(t, 73)
	w, err := core.NewWarm(g, core.RoutingIP, nil, core.WarmOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, members := range memberSets {
		warmJoin(t, w, g, i, members, 1, core.RoutingIP)
	}
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Leave(1); err != nil {
		t.Fatal(err)
	}
	sol, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.ColdSolves != 1 || st.WarmRefreshes != 1 {
		t.Fatalf("stats %+v, want 1 cold + 1 warm", st)
	}
	if err := sol.CheckFeasible(1e-9); err != nil {
		t.Fatal(err)
	}
	if len(sol.Sessions) != 2 {
		t.Fatalf("snapshot has %d sessions, want 2", len(sol.Sessions))
	}
	p := buildProblem(t, g, [][]graph.NodeID{memberSets[0], memberSets[2]}, nil, core.RoutingIP)
	ex, err := exact.MaxConcurrentFlow(g, exactOracles(t, p), 6)
	if err != nil {
		t.Fatal(err)
	}
	lambda := sol.ConcurrentRatio()
	if lambda > ex.Value+1e-6 {
		t.Fatalf("warm lambda %v exceeds optimum %v", lambda, ex.Value)
	}
	if lambda < (1-3*eps)*ex.Value-1e-9 {
		t.Fatalf("warm lambda %v below (1-3eps)*%v", lambda, ex.Value)
	}
	cold, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if lambda < cold.Lambda/(1+eps)-1e-9 {
		t.Fatalf("warm lambda %v below cold %v / (1+eps)", lambda, cold.Lambda)
	}
}

// The warm path must be a bit-identical function of the event sequence for
// every worker count and with the plane/repair on or off.
func TestWarmDeterministicAcrossWorkersAndPlane(t *testing.T) {
	const eps = 0.1
	g, memberSets := warmTestInstance(t, 74)
	run := func(e core.Engine) string {
		w, err := core.NewWarm(g, core.RoutingArbitrary, nil, core.WarmOptions{
			Epsilon: eps, Engine: e,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		fp := ""
		snap := func() {
			sol, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fp += solutionFingerprint(sol) + "--\n"
		}
		warmJoin(t, w, g, 0, memberSets[0], 1, core.RoutingArbitrary)
		warmJoin(t, w, g, 1, memberSets[1], 2, core.RoutingArbitrary)
		snap()
		warmJoin(t, w, g, 2, memberSets[2], 1, core.RoutingArbitrary)
		snap()
		if err := w.Leave(0); err != nil {
			t.Fatal(err)
		}
		snap()
		return fp
	}
	want := run(core.Engine{Workers: 1})
	for _, e := range []core.Engine{
		{Workers: 2}, {Workers: 8}, {Workers: 1, Plane: core.PlaneOff},
		{Workers: 2, Plane: core.PlaneRound}, {Workers: 2, Plane: core.PlaneRefill}, {Workers: 2, Plane: core.PlaneOff},
	} {
		if got := run(e); got != want {
			t.Fatalf("engine %q diverged:\n%s\nvs\n%s", e, got, want)
		}
	}
}

// An exhausted repair budget must fall back to a cold anchor, and a negative
// budget must force cold on every refresh.
func TestWarmBudgetFallsBackToCold(t *testing.T) {
	const eps = 0.1
	g, memberSets := warmTestInstance(t, 75)
	w, err := core.NewWarm(g, core.RoutingIP, nil, core.WarmOptions{Epsilon: eps, RepairPhaseBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 2; i++ {
		warmJoin(t, w, g, i, memberSets[i], 1, core.RoutingIP)
	}
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	warmJoin(t, w, g, 2, memberSets[2], 1, core.RoutingIP)
	sol, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.ColdSolves != 2 || st.WarmRefreshes != 0 {
		t.Fatalf("stats %+v, want budget exhaustion to re-anchor cold", st)
	}
	if err := sol.CheckFeasible(1e-9); err != nil {
		t.Fatal(err)
	}

	wc, err := core.NewWarm(g, core.RoutingIP, nil, core.WarmOptions{Epsilon: eps, RepairPhaseBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	for i, members := range memberSets {
		warmJoin(t, wc, g, i, members, 1, core.RoutingIP)
		if _, err := wc.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if st := wc.Stats(); st.ColdSolves != 3 || st.WarmRefreshes != 0 {
		t.Fatalf("stats %+v, want every refresh cold under negative budget", st)
	}
}

// Slot bookkeeping: double-leave and out-of-range errors, Active accounting,
// and a join+leave between refreshes leaving no trace.
func TestWarmSlotContract(t *testing.T) {
	g, memberSets := warmTestInstance(t, 76)
	w, err := core.NewWarm(g, core.RoutingIP, nil, core.WarmOptions{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Leave(0); err == nil {
		t.Fatal("leave on empty allocator accepted")
	}
	for i, members := range memberSets {
		warmJoin(t, w, g, i, members, 1, core.RoutingIP)
	}
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Leave(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Leave(1); err == nil {
		t.Fatal("double leave accepted")
	}
	if err := w.Leave(7); err == nil {
		t.Fatal("out-of-range leave accepted")
	}
	if w.Active(1) || !w.Active(0) || w.ActiveSessions() != 2 {
		t.Fatal("active bookkeeping wrong after leave")
	}
	// Join + immediate leave between refreshes: the next snapshot must not
	// know the session ever existed.
	before, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warmJoin(t, w, g, 3, memberSets[1], 1, core.RoutingIP)
	if err := w.Leave(3); err != nil {
		t.Fatal(err)
	}
	after, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if solutionFingerprint(before) != solutionFingerprint(after) {
		t.Fatal("join+leave between refreshes left a trace in the allocation")
	}
}
