package main

// churn-arb: an in-process Allocator with arbitrary routing and ε=0.3 over a
// 200-node Waxman network, driven by the seeded churn trace with a Snapshot
// after every event. The caller is single-threaded; the solver pool uses
// GOMAXPROCS. Warm repair dominates the refresh time.

import (
	"math"
	"time"

	"overcast"
	"overcast/internal/admin"
	"overcast/internal/churn"
)

func churnSizesFor(tiny bool) churnSizes {
	if tiny {
		return churnSizes{Nodes: 30, SizeMin: 4, SizeMax: 4, Population: 4, Sessions: 8, Setups: 2}
	}
	return churnSizes{Nodes: 200, SizeMin: 4, SizeMax: 4, Population: 8, Sessions: 50, Setups: 5, FixedPool: true}
}

// churnArbEpsilon is the allocator's FPTAS error parameter.
const churnArbEpsilon = 0.3

// churnAcc accumulates samples across replays.
type churnAcc struct {
	join, leave, refresh, all []float64
	refreshWarm, refreshCold  []float64
	ops, failed               int
	stats                     overcast.AllocatorStats
	// firstThroughputs are the first replay's per-refresh throughputs;
	// every later replay of the seed must reproduce them bit for bit.
	firstThroughputs []float64
	throughputMean   float64
	// lastAlloc is the last refresh's allocation and lastMembers its
	// sessions' members, in admission order, for the admin codec probe.
	lastAlloc   *overcast.Allocation
	lastMembers [][]int
}

func runChurnArb(cfg runConfig) (*report, error) {
	sz := churnSizesFor(cfg.Tiny)
	rep := newReport()
	acc := &churnAcc{}
	setups, loopTime, replays, err := replayRuns(sz.Setups, cfg.deadline(time.Now()),
		func(int) (*churnInst, error) { return churnSetup(cfg, sz) },
		func(inst *churnInst) error { inst.alloc.Close(); return nil },
		func(inst *churnInst, replay int) (float64, error) {
			return churnReplay(cfg, inst, replay, acc, rep), nil
		})
	if err != nil {
		return nil, err
	}

	rep.attempted, rep.failed = acc.ops, acc.failed
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	rep.e2e["ops_per_s"] = metric{float64(len(acc.all)) / loopTime, "1/s"}
	rep.e2e["refresh_p50_ms"] = metric{median(acc.refresh), "ms"}
	rep.e2e["throughput_mean"] = metric{acc.throughputMean, "rate"}
	rep.detail["replays"] = replays
	rep.detail["setups"] = len(setups)
	rep.latency("op", acc.all)
	rep.latency("join", acc.join)
	rep.latency("leave", acc.leave)
	rep.latency("refresh", acc.refresh)
	rep.latency("core.refresh_warm", acc.refreshWarm)
	rep.latency("core.refresh_cold", acc.refreshCold)
	if cfg.Tracer != nil {
		addAllocatorCounters(rep, acc.stats, replays)
		snap := wireSnapshot(acc.lastAlloc, acc.lastMembers)
		if err := adminCodecProbe(rep, &admin.Response{V: admin.ProtocolVersion, ID: 1, OK: true, Snapshot: snap}); err != nil {
			return nil, err
		}
		onet, err := overcast.WaxmanNetwork(sz.Nodes, 0, networkSeed)
		if err != nil {
			return nil, err
		}
		if err := adminIdleProbe(rep, onet, cfg, "churn-ping"); err != nil {
			return nil, err
		}
		net, err := waxman(sz.Nodes)
		if err != nil {
			return nil, err
		}
		w, _, err := genTrace(cfg.Seed, sz)
		if err != nil {
			return nil, err
		}
		if err := layerProbes(rep, net, traceSessions(w), true, cfg.Seed); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// churnInst is one fresh allocator with the trace it replays.
type churnInst struct {
	w     *churn.Workload
	evs   []event
	alloc *overcast.Allocator
}

// churnSetup generates the inputs and creates the allocator.
func churnSetup(cfg runConfig, sz churnSizes) (*churnInst, error) {
	tr := cfg.Tracer
	setupSpan := tr.Begin("bench", "setup", -1, 0)
	defer tr.End(setupSpan)
	sp := tr.Begin("topology", "overcast.WaxmanNetwork", setupSpan, 0)
	net, err := overcast.WaxmanNetwork(sz.Nodes, 0, networkSeed)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin("churn", "churn.Generate", setupSpan, 0)
	w, evs, err := genTrace(cfg.Seed, sz)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin("overcast", "overcast.NewAllocator", setupSpan, 0)
	alloc, err := overcast.NewAllocator(net, overcast.AllocatorOptions{Routing: overcast.RoutingArbitrary, Epsilon: churnArbEpsilon})
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	return &churnInst{w: w, evs: evs, alloc: alloc}, nil
}

// churnReplay replays the whole trace on the instance's allocator and
// returns the time spent in allocator calls, in seconds.
func churnReplay(cfg runConfig, inst *churnInst, replay int, acc *churnAcc, rep *report) float64 {
	tr := cfg.Tracer
	w, alloc := inst.w, inst.alloc
	ids := make(map[int]overcast.SessionID)
	var active []int // trace sessions in admission order
	var throughputs []float64
	var loop time.Duration
	timed := func(op uint64, name string, dst *[]float64, call func() error) bool {
		root := tr.Begin("bench", name, -1, op)
		sp := tr.Begin("overcast", "overcast.Allocator."+name, root, op)
		t := time.Now()
		err := call()
		d := time.Since(t)
		tr.End(sp)
		tr.End(root)
		loop += d
		acc.ops++
		if err != nil {
			acc.failed++
			rep.check(false, "churn-arb %s: %v", name, err)
			return false
		}
		ms := float64(d.Nanoseconds()) / 1e6
		*dst = append(*dst, ms)
		acc.all = append(acc.all, ms)
		return true
	}
	for i, ev := range inst.evs {
		op := uint64(replay)<<32 | uint64(i)
		switch ev.Kind {
		case evJoin:
			spec := w.Sessions[ev.Session]
			timed(op, "Join", &acc.join, func() error {
				p, err := alloc.Join(overcast.Session{Members: spec.Members, Demand: spec.Demand})
				if err == nil {
					ids[ev.Session] = p.Session
					active = append(active, ev.Session)
				}
				return err
			})
		case evLeave:
			id, ok := ids[ev.Session]
			if !ok {
				continue // its join failed, and was counted
			}
			if timed(op, "Leave", &acc.leave, func() error { return alloc.Leave(id) }) {
				for j, s := range active {
					if s == ev.Session {
						active = append(active[:j], active[j+1:]...)
						break
					}
				}
			}
		}
		if alloc.Active() == 0 {
			continue
		}
		before := alloc.Stats()
		var a *overcast.Allocation
		if !timed(op, "Snapshot", &acc.refresh, func() error {
			var err error
			a, err = alloc.Snapshot()
			return err
		}) {
			continue
		}
		ms := acc.refresh[len(acc.refresh)-1]
		if alloc.Stats().ColdSolves > before.ColdSolves {
			acc.refreshCold = append(acc.refreshCold, ms)
		} else {
			acc.refreshWarm = append(acc.refreshWarm, ms)
		}
		// Checks run outside the timed calls.
		err := a.Verify()
		rep.check(err == nil, "churn-arb refresh %d: %v", i, err)
		throughputs = append(throughputs, a.OverallThroughput())
		acc.lastAlloc = a
		acc.lastMembers = acc.lastMembers[:0]
		for _, s := range active {
			acc.lastMembers = append(acc.lastMembers, w.Sessions[s].Members)
		}
	}
	addStats(&acc.stats, alloc.Stats())

	if replay == 0 {
		acc.firstThroughputs = throughputs
		acc.throughputMean = mean(throughputs)
		rep.check(acc.throughputMean > 0, "churn-arb throughput_mean %v", acc.throughputMean)
	} else {
		same := len(throughputs) == len(acc.firstThroughputs)
		for j := 0; same && j < len(throughputs); j++ {
			same = math.Float64bits(throughputs[j]) == math.Float64bits(acc.firstThroughputs[j])
		}
		rep.check(same, "churn-arb replay %d: refresh throughputs differ from replay 0's", replay)
	}
	return loop.Seconds()
}
