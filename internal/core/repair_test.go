package core_test

import (
	"testing"

	"overcast/internal/core"
)

// TestRepairToggleBitIdentical pins the dirty-source-repair invariant: for
// both routing modes and every worker count, disabling the plane's
// cross-round repair must reproduce the enabled run bit for bit — a skipped
// refill serves exactly the bits a recompute would have produced, and the
// prestep's seed-plane copies are bitwise the Dijkstras they replace. Under
// arbitrary routing the enabled run must actually have skipped refills and
// seeded prestep rows, so the test cannot pass vacuously.
func TestRepairToggleBitIdentical(t *testing.T) {
	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		p := workerSweepProblem(t, mode)
		var base *core.MCFResult
		for _, w := range workerCounts {
			for _, plane := range []core.PlaneMode{core.PlaneSubtree, core.PlaneRound} {
				disable := plane == core.PlaneRound
				res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
					Epsilon: 0.12, Parallel: true, Engine: core.Engine{Workers: w, Plane: plane}, SurplusPass: true,
				})
				if err != nil {
					t.Fatalf("mode=%v workers=%d disable=%v: %v", mode, w, disable, err)
				}
				if mode == core.RoutingArbitrary && !disable {
					if res.Plane.PlaneSkipped+res.PrestepPlane.PlaneSkipped == 0 {
						t.Fatalf("workers=%d: repair enabled but no refill was ever skipped", w)
					}
					if res.PrestepPlane.PlaneSeeded == 0 {
						t.Fatalf("workers=%d: prestep seed plane never fired (metrics %+v)", w, res.PrestepPlane)
					}
				}
				if disable && res.Plane.PlaneSkipped+res.Plane.PlaneRepaired+res.Plane.PlaneSeeded != 0 {
					t.Fatalf("workers=%d: repair disabled but counters %+v", w, res.Plane)
				}
				if base == nil {
					base = res
					continue
				}
				if res.Lambda != base.Lambda {
					t.Fatalf("mode=%v workers=%d disable=%v: lambda %.17g != %.17g", mode, w, disable, res.Lambda, base.Lambda)
				}
				for i := range res.Betas {
					if res.Betas[i] != base.Betas[i] {
						t.Fatalf("mode=%v workers=%d disable=%v: beta[%d] %.17g != %.17g", mode, w, disable, i, res.Betas[i], base.Betas[i])
					}
				}
				sameSolution(t, mode.String(), base.Solution, res.Solution)
			}
		}
	}
}

// TestRepairToggleBitIdenticalMaxFlow covers the M1 iteration loop, where
// repair has the most room (one routed tree per iteration, every other
// session's sources untouched).
func TestRepairToggleBitIdenticalMaxFlow(t *testing.T) {
	p := workerSweepProblem(t, core.RoutingArbitrary)
	var base *core.Solution
	for _, w := range workerCounts {
		for _, plane := range []core.PlaneMode{core.PlaneSubtree, core.PlaneRound} {
			disable := plane == core.PlaneRound
			sol, err := core.MaxFlow(p, core.MaxFlowOptions{
				Epsilon: 0.1, Parallel: true, Engine: core.Engine{Workers: w, Plane: plane},
			})
			if err != nil {
				t.Fatalf("workers=%d disable=%v: %v", w, disable, err)
			}
			if !disable && sol.Plane.PlaneSkipped == 0 {
				t.Fatalf("workers=%d: MaxFlow repair never skipped a refill", w)
			}
			if base == nil {
				base = sol
				continue
			}
			sameSolution(t, "maxflow-repair", base, sol)
		}
	}
}
