package main

// cold-mcf: one-shot System.MaxConcurrentFlow on the paper's two-level
// topology (100 ASes x 100 routers) with seeded sessions, fixed IP routing
// and ε=0.3, i.e. ratio (1-ε)^3. Building the IP route tables dominates the
// set-up; the prestep, phase loop and BatchRunner fan-out dominate the solve.

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"overcast"
	"overcast/internal/admin"
	"overcast/internal/core"
	"overcast/internal/overlay"
	"overcast/internal/rng"
)

type mcfSizes struct {
	ASes, Routers    int
	Sessions, Size   int
	Setups, MinSolve int
}

func mcfSizesFor(tiny bool) mcfSizes {
	if tiny {
		return mcfSizes{ASes: 4, Routers: 10, Sessions: 6, Size: 4, Setups: 2, MinSolve: 2}
	}
	return mcfSizes{ASes: 100, Routers: 100, Sessions: 256, Size: 6, Setups: 3, MinSolve: 2}
}

// mcfRatio is (1-ε)^3 at ε=0.3.
const mcfRatio = 0.7 * 0.7 * 0.7

// genSessions draws the seeded session set: members uniform over the
// network's nodes, unit demand.
func genSessions(seed uint64, nodes int, sz mcfSizes) []overcast.Session {
	r := rng.New(seedFor(seed, streamSessions))
	out := make([]overcast.Session, sz.Sessions)
	for i := range out {
		out[i] = overcast.Session{Members: r.Sample(nodes, sz.Size), Demand: 1}
	}
	return out
}

// mcfSetup generates the network and sessions and builds the System.
func mcfSetup(cfg runConfig, sz mcfSizes) (*overcast.System, []overcast.Session, error) {
	tr := cfg.Tracer
	setupSpan := tr.Begin("bench", "setup", -1, 0)
	defer tr.End(setupSpan)
	sp := tr.Begin("topology", "overcast.TwoLevelNetwork", setupSpan, 0)
	net, err := overcast.TwoLevelNetwork(sz.ASes, sz.Routers, 0, networkSeed)
	tr.End(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.Begin("bench", "sessions", setupSpan, 0)
	sessions := genSessions(cfg.Seed, net.Nodes(), sz)
	tr.End(sp)
	sp = tr.Begin("overcast", "overcast.NewSystem", setupSpan, 0)
	sys, err := overcast.NewSystem(net, sessions, overcast.RoutingIP)
	tr.End(sp)
	return sys, sessions, err
}

func runColdMCF(cfg runConfig) (*report, error) {
	sz := mcfSizesFor(cfg.Tiny)
	tr := cfg.Tracer
	rep := newReport()
	start := time.Now()
	deadline := cfg.deadline(start)

	// Set up several times and keep the last System; each earlier one is
	// released before the next is built.
	var setups []float64
	var sys *overcast.System
	var sessions []overcast.Session
	for i := 0; i < sz.Setups; i++ {
		sys = nil
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		var err error
		sys, sessions, err = mcfSetup(cfg, sz)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	var solves []float64
	var first *overcast.FairAllocation
	var mstOps int
	for i := 0; i < sz.MinSolve || time.Now().Add(time.Duration(median(solves)*float64(time.Millisecond))).Before(deadline); i++ {
		root := tr.Begin("bench", "MaxConcurrentFlow", -1, uint64(i))
		sp := tr.Begin("overcast", "overcast.System.MaxConcurrentFlow", root, uint64(i))
		t := time.Now()
		fa, err := sys.MaxConcurrentFlow(mcfRatio, false)
		ms := sinceMs(t)
		tr.End(sp)
		tr.End(root)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.check(false, "cold-mcf solve %d: %v", i, err)
			continue
		}
		solves = append(solves, ms)
		mstOps += fa.SpanningTreeOps()
		// Checks run outside the timed calls.
		err = fa.Verify()
		rep.check(err == nil, "cold-mcf solve %d: %v", i, err)
		rep.check(fa.Lambda > 0, "cold-mcf solve %d: lambda %v", i, fa.Lambda)
		if first == nil {
			first = fa
			continue
		}
		rep.check(math.Float64bits(fa.Lambda) == math.Float64bits(first.Lambda) &&
			math.Float64bits(fa.OverallThroughput()) == math.Float64bits(first.OverallThroughput()),
			"cold-mcf solve %d: lambda %v throughput %v differ from solve 0 (%v, %v)",
			i, fa.Lambda, fa.OverallThroughput(), first.Lambda, first.OverallThroughput())
	}
	if first == nil {
		return rep, nil
	}
	var solveTime float64
	for _, ms := range solves {
		solveTime += ms / 1e3
	}
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	rep.e2e["ops_per_s"] = metric{float64(len(solves)) / solveTime, "1/s"}
	rep.e2e["refresh_p50_ms"] = metric{median(solves), "ms"}
	rep.e2e["throughput_mean"] = metric{first.OverallThroughput(), "rate"}
	rep.detail["setups"] = len(setups)
	rep.detail["solve_s"] = median(solves) / 1e3
	rep.detail["solve_n"] = len(solves)
	rep.detail["lambda"] = first.Lambda
	rep.latency("refresh", solves)

	if tr != nil {
		n := float64(len(solves))
		rep.layer["core.cold_solves"] = metric{1, "count"}
		rep.layer["core.warm_refreshes"] = metric{0, "count"}
		rep.layer["core.warm_fallbacks"] = metric{0, "count"}
		rep.layer["core.repair_phases"] = metric{0, "count"}
		rep.layer["core.mst_ops"] = metric{float64(mstOps) / n, "count"}
		members := make([][]int, len(sessions))
		for i, s := range sessions {
			members[i] = s.Members
		}
		snap := wireSnapshot(first.Allocation, members)
		if err := adminCodecProbe(rep, &admin.Response{V: admin.ProtocolVersion, ID: 1, OK: true, Snapshot: snap}); err != nil {
			return nil, err
		}
		if err := adminIdleProbe(rep, sys.Network(), cfg, "mcf-ping"); err != nil {
			return nil, err
		}
		// Release the System before the probes rebuild the instance.
		sys, first = nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		if err := mcfProbes(rep, cfg, sz, sessions); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// mcfProbes runs one core solve for its phase and prestep counters, then the
// layer probes, on the regenerated instance.
func mcfProbes(rep *report, cfg runConfig, sz mcfSizes, sessions []overcast.Session) error {
	net, err := twoLevel(sz.ASes, sz.Routers)
	if err != nil {
		return err
	}
	ss := make([]*overlay.Session, len(sessions))
	for i, s := range sessions {
		if ss[i], err = overlay.NewSession(i, s.Members, s.Demand); err != nil {
			return err
		}
	}
	p, err := core.NewProblemWeighted(net.Graph, ss, core.RoutingIP, net.LinkDelays())
	if err != nil {
		return err
	}
	res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: core.MCFRatioToEpsilon(mcfRatio), Parallel: true})
	if err != nil {
		return err
	}
	rep.layer["core.phases"] = metric{float64(res.Phases), "count"}
	rep.layer["core.prestep_mst_ops"] = metric{float64(res.PrestepMSTOps), "count"}
	addPlaneCounters(rep, 1, res.Plane)
	p, res = nil, nil
	runtime.GC()
	return layerProbes(rep, net, ss, false, cfg.Seed)
}
