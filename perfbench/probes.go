package main

// Layer probes: each one times a single layer's exported calls on the
// workload's own generated inputs (its network and its sessions), so the
// per-layer numbers of a traced run describe the same instance the
// end-to-end numbers do. Probes run after the measured loop and outside
// every span.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"overcast"
	"overcast/internal/admin"
	"overcast/internal/churn"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/shard"
	"overcast/internal/topology"
)

// probeRounds is the number of oracle batch rounds each batch and shard
// probe runs; probeSources caps the Dijkstra rows the routing probes time;
// pingProbes and codecProbes are the admin probes' repetitions.
const (
	probeRounds  = 16
	probeSources = 64
	pingProbes   = 200
	codecProbes  = 50
)

// traceSessions returns every session of a churn trace as overlay sessions.
func traceSessions(w *churn.Workload) []*overlay.Session {
	out := make([]*overlay.Session, 0, len(w.Sessions))
	for i, s := range w.Sessions {
		os, err := overlay.NewSession(i, s.Members, s.Demand)
		if err != nil {
			panic(err) // the generator only emits valid sessions
		}
		out = append(out, os)
	}
	return out
}

// addStats adds allocator counters b onto a.
func addStats(a *overcast.AllocatorStats, b overcast.AllocatorStats) {
	a.ColdSolves += b.ColdSolves
	a.WarmRefreshes += b.WarmRefreshes
	a.WarmFallbacks += b.WarmFallbacks
	a.RepairPhases += b.RepairPhases
	a.MSTOps += b.MSTOps
	a.Plane.Sources += b.Plane.Sources
	a.Plane.Requests += b.Plane.Requests
	a.Plane.Skipped += b.Plane.Skipped
	a.Plane.Repaired += b.Plane.Repaired
	a.Plane.SubtreeRepaired += b.Plane.SubtreeRepaired
	a.Plane.SubtreeNodes += b.Plane.SubtreeNodes
	a.Plane.NonMonotoneRefills += b.Plane.NonMonotoneRefills
}

// addAllocatorCounters reports the core and overlay counters of a run, per
// replay.
func addAllocatorCounters(rep *report, st overcast.AllocatorStats, replays int) {
	count := func(name string, v int) { rep.layer[name] = metric{float64(v) / float64(replays), "count"} }
	count("core.cold_solves", st.ColdSolves)
	count("core.warm_refreshes", st.WarmRefreshes)
	count("core.warm_fallbacks", st.WarmFallbacks)
	count("core.repair_phases", st.RepairPhases)
	count("core.mst_ops", st.MSTOps)
	count("core.phases", 0)
	count("core.prestep_mst_ops", 0)
	addPlaneCounters(rep, replays, overlay.Metrics{
		PlaneSources: st.Plane.Sources, PlaneRequests: st.Plane.Requests,
		PlaneSkipped: st.Plane.Skipped, PlaneRepaired: st.Plane.Repaired,
		PlaneSubtreeRepaired: st.Plane.SubtreeRepaired, PlaneSubtreeNodes: st.Plane.SubtreeNodes,
		PlaneNonMonotone: st.Plane.NonMonotoneRefills,
	})
}

func addPlaneCounters(rep *report, replays int, m overlay.Metrics) {
	count := func(name string, v int) { rep.layer[name] = metric{float64(v) / float64(replays), "count"} }
	count("overlay.plane_sources", m.PlaneSources)
	count("overlay.plane_requests", m.PlaneRequests)
	count("overlay.plane_skipped", m.PlaneSkipped)
	count("overlay.plane_repaired", m.PlaneRepaired)
	count("overlay.subtree_repaired", m.PlaneSubtreeRepaired)
	count("overlay.subtree_nodes", m.PlaneSubtreeNodes)
	count("overlay.nonmonotone_refills", m.PlaneNonMonotone)
	rep.layer["overlay.repair_rate"] = metric{m.RepairRate(), "ratio"}
	rep.layer["overlay.dedup"] = metric{m.PlaneDedup(), "ratio"}
}

// wireSnapshot renders an allocation as the daemon's snapshot frame would
// carry it; members[i] are session i's nodes.
func wireSnapshot(a *overcast.Allocation, members [][]int) *admin.SnapshotResult {
	res := &admin.SnapshotResult{
		Epoch: 1, Throughput: a.OverallThroughput(), MinRate: a.MinSessionRate(), MaxCongestion: a.MaxCongestion(),
	}
	for i, m := range members {
		wa := admin.WireAllocation{Session: uint64(i + 1), Demand: 1, Rate: a.SessionRate(i), Members: m}
		for _, t := range a.Trees(i) {
			wa.Trees = append(wa.Trees, admin.WireTree{Pairs: t.Pairs, Rate: t.Rate, Hops: t.PhysicalHops})
		}
		res.Sessions = append(res.Sessions, wa)
	}
	return res
}

// adminCodecProbe times EncodeFrame and DecodeResponse on a snapshot frame.
func adminCodecProbe(rep *report, resp *admin.Response) error {
	if resp.Snapshot == nil {
		return fmt.Errorf("admin codec probe: no snapshot frame captured")
	}
	var frame []byte
	var enc, dec []float64
	for i := 0; i < codecProbes; i++ {
		t := time.Now()
		b, err := admin.EncodeFrame(resp)
		enc = append(enc, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		t = time.Now()
		if _, err := admin.DecodeResponse(b); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(t).Nanoseconds())/1e3)
		frame = b
	}
	rep.layer["admin.encode_us.snapshot"] = metric{median(enc), "us"}
	rep.layer["admin.decode_us.snapshot"] = metric{median(dec), "us"}
	rep.layer["admin.frame_bytes.snapshot"] = metric{float64(len(frame)), "bytes"}
	return nil
}

// adminIdleProbe serves a fresh allocator over net on a socket and times
// pings with no other load: the socket, codec and server loop alone.
func adminIdleProbe(rep *report, net *overcast.Network, cfg runConfig, tag string) error {
	alloc, err := overcast.NewAllocator(net, overcast.AllocatorOptions{})
	if err != nil {
		return err
	}
	defer alloc.Close()
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("%s-%d", tag, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "admin.sock")
	srv, err := admin.NewServer(alloc, admin.Options{SocketPath: sock})
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	var pings []float64
	c, err := admin.Dial(sock, 2*time.Second)
	if err == nil {
		for i := 0; i < pingProbes && err == nil; i++ {
			t := time.Now()
			_, err = c.Ping()
			pings = append(pings, float64(time.Since(t).Nanoseconds())/1e3)
		}
		c.Close()
	}
	srv.Drain()
	if serr := <-serveErr; err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("admin ping probe: %w", err)
	}
	rep.layer["admin.ping_p50_us"] = metric{median(pings), "us"}
	return nil
}

// members returns every distinct member of the sessions, in first-seen
// order.
func members(sessions []*overlay.Session) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, s := range sessions {
		for _, m := range s.Members {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	return out
}

// perturbed returns lengths drawn around 1, so Dijkstra sees a non-uniform
// metric like the solvers' length functions after a few phases.
func perturbed(g *graph.Graph, r *rng.RNG) graph.Lengths {
	d := graph.NewLengths(g, 1)
	for e := range d {
		d[e] = 1 + r.Float64()
	}
	return d
}

// layerProbes runs the routing, graph, overlay and shard probes on the
// workload's network and sessions. arbitrary selects the oracle kind the
// workload's allocations use.
func layerProbes(rep *report, net *topology.Network, sessions []*overlay.Session, arbitrary bool, seed uint64) error {
	g := net.Graph
	r := rng.New(seedFor(seed, streamProbes))
	srcs := members(sessions)

	t := time.Now()
	rt := routing.NewWeightedIPRoutes(g, srcs, net.LinkDelays())
	rep.layer["routing.ip_routes_s"] = metric{time.Since(t).Seconds(), "s"}

	probeSrcs := srcs
	if len(probeSrcs) > probeSources {
		probeSrcs = probeSrcs[:probeSources]
	}
	d := perturbed(g, r)
	routingProbes(rep, g, probeSrcs, d, r)
	graphProbes(rep, g)

	fixed := make([]overlay.TreeOracle, len(sessions))
	oracles := make([]overlay.TreeOracle, len(sessions))
	for i, s := range sessions {
		o, err := overlay.NewFixedOracle(g, rt, s)
		if err != nil {
			return err
		}
		fixed[i] = o
		oracles[i] = o
		if arbitrary {
			if oracles[i], err = overlay.NewArbitraryOracle(g, s); err != nil {
				return err
			}
		}
	}
	sc := overlay.NewScratch(g)
	var calls int
	t = time.Now()
	for pass := 0; pass < 4; pass++ {
		for _, o := range fixed {
			if _, err := overlay.MinTreeWith(o, d, sc); err != nil {
				return err
			}
			calls++
		}
	}
	rep.layer["overlay.fixed_mintree_us"] = metric{float64(time.Since(t).Nanoseconds()) / 1e3 / float64(calls), "us"}

	for _, w := range []int{1, 2} {
		br := overlay.NewBatchRunnerOpts(g, oracles, overlay.BatchOptions{Workers: w, SharedPlane: true})
		ms, err := batchRounds(g, len(oracles), br.MinTreesLen)
		br.Close()
		if err != nil {
			return err
		}
		rep.layer[fmt.Sprintf("overlay.batch_round_ms.w%d", w)] = metric{ms, "ms"}
	}
	for _, s := range []int{1, 2} {
		gp := shard.NewGroup(g, oracles, shard.Options{Shards: s, Labels: net.ASOf, Workers: 1, SharedPlane: true})
		ms, err := batchRounds(g, len(oracles), gp.MinTreesLen)
		st := gp.Stats()
		gp.Close()
		if err != nil {
			return err
		}
		rep.layer[fmt.Sprintf("shard.round_ms.s%d", s)] = metric{ms, "ms"}
		if s == 2 {
			rep.layer["shard.msgs_per_round"] = metric{float64(st.Msgs) / probeRounds, "count"}
			rep.layer["shard.exchange_bytes_per_round"] = metric{float64(st.ExchangeBytes) / probeRounds, "bytes"}
			rep.layer["shard.reduce_ms"] = metric{float64(st.ReduceNanos) / 1e6 / probeRounds, "ms"}
		}
	}
	return nil
}

// batchRounds runs probeRounds oracle batches over every session, growing
// the lengths of each returned tree's edges between rounds as the solvers'
// phase loop does, and returns the mean round time in milliseconds.
func batchRounds(g *graph.Graph, n int, minTrees func(*graph.LengthStore, []int) []overlay.BatchResult) (float64, error) {
	ls := graph.NewLengthStore(g, 1)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	var total time.Duration
	for round := 0; round < probeRounds; round++ {
		t := time.Now()
		res := minTrees(ls, ids)
		total += time.Since(t)
		for _, br := range res {
			if br.Err != nil {
				return 0, br.Err
			}
			for _, u := range br.Tree.Use() {
				ls.Bump(u.Edge, 1+0.05*float64(u.Count))
			}
		}
	}
	return float64(total.Nanoseconds()) / 1e6 / probeRounds, nil
}

// routingProbes times the Dijkstra kernel and subtree repair from the probe
// sources under lengths d.
func routingProbes(rep *report, g *graph.Graph, srcs []graph.NodeID, d graph.Lengths, r *rng.RNG) {
	n := g.NumNodes()
	sc := routing.NewDijkstraScratch(g)
	dist := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	const passes = 4
	t := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, s := range srcs {
			sc.ShortestPathsInto(g, s, d, dist, parent)
		}
	}
	rep.layer["routing.dijkstra_us"] = metric{float64(time.Since(t).Nanoseconds()) / 1e3 / float64(passes*len(srcs)), "us"}

	// Subtree repair: grow the parent edge of repairRoots random nodes of
	// each stored row, then resettle only the subtrees below them.
	const repairRoots = 2
	var total time.Duration
	var repairs, nodes int
	var out []graph.NodeID
	for _, s := range srcs {
		sc.ShortestPathsInto(g, s, d, dist, parent)
		var roots []graph.NodeID
		saved := map[graph.EdgeID]float64{}
		for len(roots) < repairRoots {
			v := r.Intn(n)
			if v == s || parent[v] < 0 {
				continue
			}
			if _, dup := saved[parent[v]]; dup {
				continue
			}
			saved[parent[v]] = d[parent[v]]
			d[parent[v]] *= 1.5
			roots = append(roots, v)
		}
		t := time.Now()
		rep2, ok := sc.RepairSubtreesInto(g, s, d, dist, parent, roots, out[:0])
		total += time.Since(t)
		if ok {
			repairs++
			nodes += len(rep2)
		}
		out = rep2
		for e, v := range saved {
			d[e] = v
		}
	}
	rep.layer["routing.subtree_repair_us"] = metric{float64(total.Nanoseconds()) / 1e3 / float64(len(srcs)), "us"}
	frac := 0.0
	if repairs > 0 {
		frac = float64(nodes) / float64(repairs*n)
	}
	rep.layer["routing.subtree_frac"] = metric{frac, "ratio"}
}

// graphProbes times ledger bumps and the journal walk over them.
func graphProbes(rep *report, g *graph.Graph) {
	ls := graph.NewLengthStore(g, 1)
	m := g.NumEdges()
	bumps := min(graph.JournalWindow/2, 64*m)
	since := ls.Epoch()
	t := time.Now()
	for i := 0; i < bumps; i++ {
		ls.Bump(graph.EdgeID(i%m), 1.0001)
	}
	rep.layer["graph.bump_ns"] = metric{float64(time.Since(t).Nanoseconds()) / float64(bumps), "ns"}
	walked := 0
	t = time.Now()
	ls.ForEachTouched(since, func(graph.EdgeID) bool { walked++; return false })
	rep.layer["graph.journal_walk_ns_per_edge"] = metric{float64(time.Since(t).Nanoseconds()) / float64(max(walked, 1)), "ns"}
}
