package core_test

import (
	"testing"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// shardCounts is the sweep the CI determinism gate runs detdump -shards at.
var shardCounts = []int{1, 2, 4}

// twoLevelSweepProblem builds a contended instance on the paper's two-level
// AS/router topology — the partition the sharded solver is designed for —
// with sessions spanning AS boundaries so trees cross the cut set.
func twoLevelSweepProblem(t *testing.T, mode core.RoutingMode) (*core.Problem, []int) {
	t.Helper()
	r := rng.New(99)
	net, err := topology.TwoLevel(topology.DefaultTwoLevel(6, 10), r)
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(net.Graph.NumNodes())
	sets := [][]graph.NodeID{perm[0:5], perm[5:9], perm[9:14], perm[14:17], perm[17:20]}
	p := buildProblem(t, net.Graph, sets, []float64{100, 50, 80, 120, 60}, mode)
	return p, net.ASOf
}

// TestMaxFlowBitIdenticalAcrossShardCounts pins the tentpole invariant for
// M1: partitioning oracle evaluation across price-exchanging shards moves
// wall-clock and memory locality only, never output bits — for any shard ×
// worker combination, against the unsharded baseline.
func TestMaxFlowBitIdenticalAcrossShardCounts(t *testing.T) {
	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		p, labels := twoLevelSweepProblem(t, mode)
		base, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.1, Engine: core.Engine{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts {
			for _, w := range []int{1, 8} {
				sol, err := core.MaxFlow(p, core.MaxFlowOptions{
					Epsilon: 0.1, Parallel: true, Engine: core.Engine{Workers: w, Shards: shards},
					ShardLabels: labels,
				})
				if err != nil {
					t.Fatalf("mode=%v shards=%d workers=%d: %v", mode, shards, w, err)
				}
				sameSolution(t, mode.String(), base, sol)
			}
		}
	}
}

// TestMCFBitIdenticalAcrossShardCounts pins the same invariant for M2 —
// phase loop, surplus pass, plus the plane and repair toggles on the sharded
// path (each shard's replica plane must behave like the unsharded one).
func TestMCFBitIdenticalAcrossShardCounts(t *testing.T) {
	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		p, labels := twoLevelSweepProblem(t, mode)
		base, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
			Epsilon: 0.12, Engine: core.Engine{Workers: 1}, SurplusPass: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, res *core.MCFResult) {
			t.Helper()
			if res.Lambda != base.Lambda {
				t.Fatalf("%s: lambda %.17g != %.17g", label, res.Lambda, base.Lambda)
			}
			sameSolution(t, label, base.Solution, res.Solution)
		}
		for _, shards := range shardCounts {
			for _, w := range []int{1, 8} {
				res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
					Epsilon: 0.12, Parallel: true, Engine: core.Engine{Workers: w, Shards: shards},
					SurplusPass: true, ShardLabels: labels,
				})
				if err != nil {
					t.Fatalf("mode=%v shards=%d workers=%d: %v", mode, shards, w, err)
				}
				if res.Shards.Shards != shards || res.Shards.ExchangeRounds == 0 {
					t.Fatalf("mode=%v shards=%d: exchange stats %+v", mode, shards, res.Shards)
				}
				check(mode.String(), res)
			}
		}
		// Plane/repair toggles on the sharded path reproduce the same bits.
		for _, opt := range []core.MaxConcurrentFlowOptions{
			{Epsilon: 0.12, Engine: core.Engine{Workers: 2, Shards: 4, Plane: core.PlaneOff}, SurplusPass: true, ShardLabels: labels},
			{Epsilon: 0.12, Engine: core.Engine{Workers: 2, Shards: 4, Plane: core.PlaneRound}, SurplusPass: true, ShardLabels: labels},
		} {
			res, err := core.MaxConcurrentFlow(p, opt)
			if err != nil {
				t.Fatalf("mode=%v toggles %+v: %v", mode, opt, err)
			}
			check(mode.String()+"-toggle", res)
		}
	}
}

// TestWarmShardedBitIdentical replays a join/leave churn script through warm
// allocators at shard counts 0/2/4 and requires bitwise identical snapshots
// throughout — the warm repair runner, the rollback path, and the cold
// re-anchors all run through the shard boundary — and that the sharded runs
// actually exchanged prices.
func TestWarmShardedBitIdentical(t *testing.T) {
	r := rng.New(321)
	net, err := topology.TwoLevel(topology.DefaultTwoLevel(4, 10), r)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	perm := r.Perm(g.NumNodes())
	spans := [][2]int{{0, 4}, {4, 7}, {7, 11}, {11, 14}, {14, 18}, {18, 21}}
	demands := []float64{100, 60, 80, 40, 120, 90}

	runScript := func(shards int) ([]*core.Solution, core.WarmStats) {
		t.Helper()
		var labels []int
		if shards > 0 {
			labels = net.ASOf
		}
		w, err := core.NewWarm(g, core.RoutingArbitrary, nil, core.WarmOptions{
			Epsilon: 0.15, Engine: core.Engine{Workers: 2, Shards: shards}, ShardLabels: labels,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		join := func(slot int) {
			t.Helper()
			s, err := overlay.NewSession(slot, perm[spans[slot][0]:spans[slot][1]], demands[slot])
			if err != nil {
				t.Fatal(err)
			}
			o, err := overlay.NewArbitraryOracle(g, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Join(s, o); err != nil {
				t.Fatal(err)
			}
		}
		var sols []*core.Solution
		snap := func() {
			t.Helper()
			sol, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sols = append(sols, sol)
		}
		join(0)
		join(1)
		join(2)
		snap() // cold anchor
		join(3)
		snap() // warm join catch-up
		if err := w.Leave(1); err != nil {
			t.Fatal(err)
		}
		join(4)
		snap() // rollback + join in one refresh
		join(5)
		if err := w.Leave(0); err != nil {
			t.Fatal(err)
		}
		snap()
		return sols, w.Stats()
	}

	base, baseStats := runScript(0)
	if baseStats.Shards.ExchangeRounds != 0 {
		t.Fatalf("unsharded run reported shard stats: %+v", baseStats.Shards)
	}
	for _, shards := range []int{2, 4} {
		sols, stats := runScript(shards)
		if len(sols) != len(base) {
			t.Fatalf("shards=%d: %d snapshots vs %d", shards, len(sols), len(base))
		}
		for i := range sols {
			sameSolution(t, "warm-sharded", base[i], sols[i])
		}
		if stats.Shards.Shards != shards || stats.Shards.ExchangeRounds == 0 || stats.Shards.Msgs == 0 {
			t.Fatalf("shards=%d: exchange stats %+v", shards, stats.Shards)
		}
		if stats.ColdSolves != baseStats.ColdSolves || stats.WarmRefreshes != baseStats.WarmRefreshes {
			t.Fatalf("shards=%d: warm/cold split %d/%d vs %d/%d", shards,
				stats.ColdSolves, stats.WarmRefreshes, baseStats.ColdSolves, baseStats.WarmRefreshes)
		}
	}
}
