package experiments

import (
	"math"
	"strings"
	"testing"

	"overcast/internal/stats"
)

// smallA builds a scaled-down Setting A quickly for tests.
func smallA(t testing.TB) *SettingA {
	t.Helper()
	a, err := NewSettingA(7, SettingAConfig{Nodes: 40, SessionSizes: []int{5, 4}, Demand: 100, Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSettingAValidation(t *testing.T) {
	if _, err := NewSettingA(1, SettingAConfig{Nodes: 2, SessionSizes: []int{5}}); err == nil {
		t.Error("tiny topology accepted")
	}
	if _, err := NewSettingA(1, SettingAConfig{Nodes: 10, SessionSizes: []int{8, 8}, Demand: 1}); err == nil {
		t.Error("member overflow accepted")
	}
}

func TestSettingADeterministic(t *testing.T) {
	a1 := smallA(t)
	a2 := smallA(t)
	if a1.Net.Graph.NumEdges() != a2.Net.Graph.NumEdges() {
		t.Fatal("topology differs across identical seeds")
	}
	for i := range a1.Sessions {
		for j := range a1.Sessions[i].Members {
			if a1.Sessions[i].Members[j] != a2.Sessions[i].Members[j] {
				t.Fatal("sessions differ across identical seeds")
			}
		}
	}
}

func TestMaxFlowSweepShape(t *testing.T) {
	a := smallA(t)
	ratios := []float64{0.90, 0.95}
	rows, sols, err := a.MaxFlowSweep(ratios, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(sols) != 2 {
		t.Fatal("row count wrong")
	}
	// Tighter ratio must cost more MST ops and not lose meaningful value.
	if rows[1].MSTOps <= rows[0].MSTOps {
		t.Fatalf("MST ops did not grow with ratio: %d -> %d", rows[0].MSTOps, rows[1].MSTOps)
	}
	if rows[1].Throughput < rows[0].Throughput*0.97 {
		t.Fatalf("throughput degraded sharply: %v -> %v", rows[0].Throughput, rows[1].Throughput)
	}
	for i, row := range rows {
		if err := sols[i].CheckFeasible(1e-9); err != nil {
			t.Fatal(err)
		}
		// Overall throughput consistency: sum of receivers x rate.
		want := 0.0
		for s, rate := range row.SessionRates {
			want += float64(a.Sessions[s].Receivers()) * rate
		}
		if math.Abs(want-row.Throughput) > 1e-6 {
			t.Fatalf("throughput inconsistent: %v vs %v", want, row.Throughput)
		}
	}
	// MaxFlow favors the larger session (paper's Table II observation).
	if rows[1].SessionRates[0] < rows[1].SessionRates[1] {
		t.Logf("note: larger session rate %v < smaller %v (topology-dependent)",
			rows[1].SessionRates[0], rows[1].SessionRates[1])
	}
}

func TestMCFSweepShape(t *testing.T) {
	a := smallA(t)
	rows, sols, err := a.MCFSweep([]float64{0.92}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sols[0].CheckFeasible(1e-6); err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Lambda <= 0 {
		t.Fatal("lambda not positive")
	}
	if row.PrestepOps <= 0 || row.MSTOps <= 0 {
		t.Fatalf("runtime parts not recorded: %d + %d", row.MSTOps, row.PrestepOps)
	}
	// Each session must get at least its fair share lambda*dem.
	for i, rate := range row.SessionRates {
		if rate < row.Lambda*a.Sessions[i].Demand-1e-6 {
			t.Fatalf("session %d rate %v below fair share %v", i, rate, row.Lambda*a.Sessions[i].Demand)
		}
	}
}

func TestFairnessComparisonMFvsMCF(t *testing.T) {
	// The central Table II vs IV comparison: MCF raises the smaller
	// session's rate; MaxFlow has the higher throughput.
	a := smallA(t)
	mfRows, _, err := a.MaxFlowSweep([]float64{0.93}, false)
	if err != nil {
		t.Fatal(err)
	}
	mcfRows, _, err := a.MCFSweep([]float64{0.93}, false)
	if err != nil {
		t.Fatal(err)
	}
	mf, mcf := mfRows[0], mcfRows[0]
	minMF := math.Min(mf.SessionRates[0], mf.SessionRates[1])
	minMCF := math.Min(mcf.SessionRates[0], mcf.SessionRates[1])
	if minMCF < minMF*0.9 {
		t.Fatalf("MCF min rate %v below MaxFlow min rate %v", minMCF, minMF)
	}
	if mf.Throughput < mcf.Throughput*0.95 {
		t.Fatalf("MaxFlow throughput %v not dominating MCF %v", mf.Throughput, mcf.Throughput)
	}
}

func TestArbitraryRoutingDominatesIP(t *testing.T) {
	// Sec. V-C claims arbitrary routing changes throughput by <1%. On our
	// BRITE-style instances the gain is substantial (1.5-2.2x; compare
	// `go run ./cmd/experiments table2 table7`) — the claim does not
	// reproduce. What must hold is the
	// direction: dynamic routing only widens the feasible set, so the
	// arbitrary-routing optimum is never meaningfully below the IP one.
	a := smallA(t)
	ipRows, _, err := a.MaxFlowSweep([]float64{0.93}, false)
	if err != nil {
		t.Fatal(err)
	}
	arbRows, _, err := a.MaxFlowSweep([]float64{0.93}, true)
	if err != nil {
		t.Fatal(err)
	}
	ratio := arbRows[0].Throughput / ipRows[0].Throughput
	if ratio < 0.90 {
		t.Fatalf("arbitrary routing lost throughput vs IP: ratio %v", ratio)
	}
	if ratio > 4 {
		t.Fatalf("arbitrary/IP ratio %v implausibly high — likely a feasibility bug", ratio)
	}
}

func TestRateCDFAsymmetry(t *testing.T) {
	// Fig. 2's observation on small sessions: most of the rate concentrates
	// in a minority of trees.
	a := smallA(t)
	_, sols, err := a.MaxFlowSweep([]float64{0.95}, false)
	if err != nil {
		t.Fatal(err)
	}
	cdfs := RateCDFs(sols[0])
	if len(cdfs) != 2 {
		t.Fatal("expected 2 session curves")
	}
	rates := sols[0].RateDistribution(0)
	if frac := stats.TopShareFraction(rates, 0.9); frac > 0.6 {
		t.Fatalf("rate distribution too flat: top-90%% fraction = %v", frac)
	}
	util := LinkUtilizationCDF(sols[0])
	if len(util) == 0 {
		t.Fatal("no utilization curve")
	}
}

func TestTreeLimitSweepSmall(t *testing.T) {
	a := smallA(t)
	cfg := TreeLimitConfig{
		MaxTrees:  []int{1, 5, 15},
		Mus:       []float64{30},
		Trials:    6,
		BaseRatio: 0.92,
	}
	res, err := a.TreeLimitSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Diminishing-return shape: throughput grows with the tree limit.
	if res.Random[2].Throughput < res.Random[0].Throughput {
		t.Fatalf("random throughput not growing: %v -> %v",
			res.Random[0].Throughput, res.Random[2].Throughput)
	}
	on := res.Online[30]
	if on[2].Throughput < on[0].Throughput {
		t.Fatalf("online throughput not growing: %v -> %v", on[0].Throughput, on[2].Throughput)
	}
	// Tree usage is bounded by the limit.
	for j, n := range cfg.MaxTrees {
		for i := range a.Sessions {
			if res.Random[j].TreesUsed[i] > float64(n)+1e-9 {
				t.Fatalf("random used %v trees at limit %d", res.Random[j].TreesUsed[i], n)
			}
			if on[j].TreesUsed[i] > float64(n)+1e-9 {
				t.Fatalf("online used %v trees at limit %d", on[j].TreesUsed[i], n)
			}
		}
	}
	if _, err := a.TreeLimitSweep(TreeLimitConfig{MaxTrees: []int{1}, Trials: 0, BaseRatio: 0.9}); err == nil {
		t.Fatal("Trials=0 accepted")
	}
}

func TestSettingBGridSmall(t *testing.T) {
	b, err := NewSettingB(11, SettingBConfig{ASes: 3, RoutersPerAS: 12, Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg := GridConfig{SessionCounts: []int{1, 3}, SessionSizes: []int{4, 8}, Ratio: 0.92, Demand: 1}
	res, err := b.Grid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells", len(res.Cells))
	}
	for key, cell := range res.Cells {
		if cell.MFThroughput <= 0 {
			t.Fatalf("cell %v throughput %v", key, cell.MFThroughput)
		}
		if cell.MCFMinRate <= 0 {
			t.Fatalf("cell %v min rate %v", key, cell.MCFMinRate)
		}
		if cell.EdgesPerNode <= 0 {
			t.Fatalf("cell %v edges/node %v", key, cell.EdgesPerNode)
		}
		ratio := cell.MCFThroughput / cell.MFThroughput
		if ratio > 1.05 {
			t.Fatalf("cell %v MCF throughput exceeds MF: ratio %v", key, ratio)
		}
		if len(cell.MFUtilCDF) == 0 || len(cell.MFTreeRateCDF) == 0 {
			t.Fatalf("cell %v missing curves", key)
		}
	}
	// Fig. 12 shape: throughput grows with session size for a single
	// session (more receivers).
	if res.Throughput.At(1, 8) <= res.Throughput.At(1, 4)*0.8 {
		t.Fatalf("single-session throughput did not scale with size: %v vs %v",
			res.Throughput.At(1, 4), res.Throughput.At(1, 8))
	}
	// Fig. 16 shape: MCF conserves most of MF's throughput.
	for _, c := range cfg.SessionCounts {
		for _, s := range cfg.SessionSizes {
			if r := res.ThroughputRatio.At(c, s); r < 0.5 {
				t.Fatalf("MCF/MF ratio %v at (%d,%d) implausibly low", r, c, s)
			}
		}
	}
}

func TestSettingBOnlineGridSmall(t *testing.T) {
	b, err := NewSettingB(13, SettingBConfig{ASes: 3, RoutersPerAS: 10, Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg := GridConfig{SessionCounts: []int{2}, SessionSizes: []int{4}, Ratio: 0.92, Demand: 1}
	res, err := b.OnlineGrid(cfg, []int{2, 10}, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo := res.ThroughputRatio[2].At(2, 4)
	hi := res.ThroughputRatio[10].At(2, 4)
	if lo <= 0 || hi <= 0 {
		t.Fatalf("ratios not positive: %v %v", lo, hi)
	}
	if hi < lo*0.8 {
		t.Fatalf("more trees should not hurt much: %v -> %v", lo, hi)
	}
	if hi > 1.05 {
		t.Fatalf("online exceeded offline optimum: %v", hi)
	}
	if mr := res.MinRateRatio[10].At(2, 4); mr <= 0 || mr > 1.2 {
		t.Fatalf("min-rate ratio %v implausible", mr)
	}
	if _, err := b.OnlineGrid(cfg, []int{1}, 10, 0); err == nil {
		t.Fatal("trials=0 accepted")
	}
}

func TestRenderers(t *testing.T) {
	a := smallA(t)
	rows, sols, err := a.MaxFlowSweep([]float64{0.9}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFlowTable("Table II", rows)
	for _, want := range []string{"Table II", "Approximation Ratio", "Overall Throughput", "Trees in Session 1", "MST ops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flow table missing %q:\n%s", want, out)
		}
	}
	mcfRows, _, err := a.MCFSweep([]float64{0.9}, false)
	if err != nil {
		t.Fatal(err)
	}
	mout := RenderMCFTable("Table IV", mcfRows)
	if !strings.Contains(mout, "Prestep") || !strings.Contains(mout, "Lambda") {
		t.Fatalf("MCF table missing runtime parts:\n%s", mout)
	}
	cd := RenderCDFFamily("Fig 2", []string{"s1", "s2"}, RateCDFs(sols[0]), 10)
	if !strings.Contains(cd, "s1") || !strings.Contains(cd, "0.") {
		t.Fatalf("CDF render wrong:\n%s", cd)
	}
	tl, err := a.TreeLimitSweep(TreeLimitConfig{MaxTrees: []int{1, 3}, Mus: []float64{20}, Trials: 2, BaseRatio: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	tout := RenderTreeLimit(tl)
	if !strings.Contains(tout, "random algorithm") || !strings.Contains(tout, "mu=20") {
		t.Fatalf("tree-limit render wrong:\n%s", tout)
	}
}
