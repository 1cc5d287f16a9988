package main

// daemon-ip: an in-process admin server over a 200-node Waxman network with
// fixed IP routing. Two closed-loop client connections replay a seeded churn
// trace, sessions split between them by index parity. Each event (join,
// leave, or one of a seeded pair of capacity drifts on one link) is
// followed by a cached snapshot read; every RefreshEvery-th event of a
// client asks for a refreshing snapshot instead.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"overcast"
	"overcast/internal/admin"
	"overcast/internal/churn"
)

type daemonSizes struct {
	churnSizes
	Clients      int
	RefreshEvery int
	PingEvery    int // traced runs only
}

func daemonSizesFor(tiny bool) daemonSizes {
	if tiny {
		return daemonSizes{churnSizes{Nodes: 30, SizeMin: 4, SizeMax: 4, Population: 4, Sessions: 10, Setups: 2}, 2, 4, 2}
	}
	return daemonSizes{churnSizes{Nodes: 200, SizeMin: 4, SizeMax: 4, Population: 16, Sessions: 420, Setups: 5}, 2, 8, 4}
}

// congestionTol is the slack allowed above full link utilization.
const congestionTol = 1e-6

// daemonSamples are one connection's samples in a replay, or, merged, a
// run's.
type daemonSamples struct {
	join, leave, fault, snap, refresh, ping, all []float64
	refreshWarm, refreshCold                     []float64
	throughputs                                  []float64
	ops, failed                                  int
	lastSnap                                     *admin.SnapshotResult
	refusals                                     []string
	checked                                      int
	checks                                       []string
	err                                          error
}

func (s *daemonSamples) merge(o daemonSamples) {
	s.join = append(s.join, o.join...)
	s.leave = append(s.leave, o.leave...)
	s.fault = append(s.fault, o.fault...)
	s.snap = append(s.snap, o.snap...)
	s.refresh = append(s.refresh, o.refresh...)
	s.ping = append(s.ping, o.ping...)
	s.all = append(s.all, o.all...)
	s.refreshWarm = append(s.refreshWarm, o.refreshWarm...)
	s.refreshCold = append(s.refreshCold, o.refreshCold...)
	s.throughputs = append(s.throughputs, o.throughputs...)
	s.ops += o.ops
	s.failed += o.failed
	s.refusals = append(s.refusals, o.refusals...)
	s.checked += o.checked
	s.checks = append(s.checks, o.checks...)
	if o.lastSnap != nil {
		s.lastSnap = o.lastSnap
	}
}

// daemonAcc accumulates a run's samples and allocator counters.
type daemonAcc struct {
	daemonSamples
	stats overcast.AllocatorStats
}

func (s *daemonSamples) check(ok bool, format string, args ...any) {
	s.checked++
	if !ok {
		s.checks = append(s.checks, fmt.Sprintf(format, args...))
	}
}

// maxRefusals caps the refusal messages a run keeps for its report.
const maxRefusals = 5

func runDaemonIP(cfg runConfig) (*report, error) {
	sz := daemonSizesFor(cfg.Tiny)
	acc := &daemonAcc{}
	rep := newReport()
	setups, loopTime, replays, err := replayRuns(sz.Setups, cfg.deadline(time.Now()),
		func(idx int) (*daemonInst, error) { return daemonSetup(cfg, sz, idx) },
		(*daemonInst).close,
		func(inst *daemonInst, _ int) (float64, error) { return daemonReplay(cfg, sz, inst, acc) })
	if err != nil {
		return nil, err
	}

	rep.attempted, rep.failed = acc.ops, acc.failed
	rep.detail["refusals"] = acc.refusals
	rep.checked, rep.checks = acc.checked, acc.checks
	rep.check(len(acc.throughputs) > 0, "no refresh completed")
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	rep.e2e["ops_per_s"] = metric{float64(len(acc.all)) / loopTime, "1/s"}
	rep.e2e["refresh_p50_ms"] = metric{median(acc.refresh), "ms"}
	rep.e2e["throughput_mean"] = metric{mean(acc.throughputs), "rate"}
	rep.detail["replays"] = replays
	rep.detail["setups"] = len(setups)
	rep.latency("op", acc.all)
	rep.latency("join", acc.join)
	rep.latency("leave", acc.leave)
	rep.latency("fault", acc.fault)
	rep.latency("snapshot", acc.snap)
	rep.latency("refresh", acc.refresh)
	if cfg.Tracer != nil {
		rep.latency("core.refresh_warm", acc.refreshWarm)
		rep.latency("core.refresh_cold", acc.refreshCold)
		rep.layer["admin.ping_p50_us"] = metric{1000 * median(acc.ping), "us"}
		rep.detail["admin.ping_n"] = len(acc.ping)
		addAllocatorCounters(rep, acc.stats, replays)
		if err := adminCodecProbe(rep, &admin.Response{V: admin.ProtocolVersion, ID: 1, OK: true, Snapshot: acc.lastSnap}); err != nil {
			return nil, err
		}
		net, err := waxman(sz.Nodes)
		if err != nil {
			return nil, err
		}
		w, _, err := genTrace(cfg.Seed, sz.churnSizes)
		if err != nil {
			return nil, err
		}
		if err := layerProbes(rep, net, traceSessions(w), false, cfg.Seed); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// daemonInst is one booted daemon with its connected clients and the
// trace split between them.
type daemonInst struct {
	w        *churn.Workload
	work     [][]event
	alloc    *overcast.Allocator
	srv      *admin.Server
	serveErr chan error
	clients  []*admin.Client
	dir      string
}

// daemonSetup generates the inputs, boots an allocator and an admin server
// on a fresh socket, and connects the clients.
func daemonSetup(cfg runConfig, sz daemonSizes, idx int) (inst *daemonInst, err error) {
	tr := cfg.Tracer
	setupSpan := tr.Begin("bench", "setup", -1, 0)
	defer tr.End(setupSpan)
	inst = &daemonInst{}
	defer func() {
		if err != nil {
			inst.close()
		}
	}()

	sp := tr.Begin("topology", "overcast.WaxmanNetwork", setupSpan, 0)
	net, err := overcast.WaxmanNetwork(sz.Nodes, 0, networkSeed)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin("topology", "topology.Waxman", setupSpan, 0)
	tnet, err := waxman(sz.Nodes)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin("churn", "churn.Generate", setupSpan, 0)
	w, evs, err := genTrace(cfg.Seed, sz.churnSizes)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin("underlay", "underlay.GenerateFailures", setupSpan, 0)
	faults, err := genFaults(cfg.Seed, tnet, len(evs))
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	inst.w = w
	inst.work = make([][]event, sz.Clients)
	for _, ev := range evs {
		inst.work[ev.Session%sz.Clients] = append(inst.work[ev.Session%sz.Clients], ev)
	}
	inst.work[0] = mergeEvents(inst.work[0], faults)

	sp = tr.Begin("overcast", "overcast.NewAllocator", setupSpan, 0)
	inst.alloc, err = overcast.NewAllocator(net, overcast.AllocatorOptions{})
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	inst.dir = filepath.Join(cfg.Dir, fmt.Sprintf("daemon-%d-%d", os.Getpid(), idx))
	if err := os.MkdirAll(inst.dir, 0o755); err != nil {
		return nil, err
	}
	sock := filepath.Join(inst.dir, "admin.sock")
	sp = tr.Begin("admin", "admin.NewServer+Listen", setupSpan, 0)
	srv, err := admin.NewServer(inst.alloc, admin.Options{SocketPath: sock})
	if err == nil {
		err = srv.Listen()
	}
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	inst.srv = srv
	inst.serveErr = make(chan error, 1)
	go func() { inst.serveErr <- srv.Serve() }()
	for i := 0; i < sz.Clients; i++ {
		sp = tr.Begin("admin", "admin.Dial", setupSpan, 0)
		c, err := admin.Dial(sock, 2*time.Second)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
		inst.clients = append(inst.clients, c)
	}
	return inst, nil
}

// close disconnects the clients, drains the server and waits for it, and
// releases the allocator and the socket directory.
func (d *daemonInst) close() error {
	for _, c := range d.clients {
		c.Close()
	}
	var err error
	if d.srv != nil {
		d.srv.Drain()
		if serr := <-d.serveErr; serr != nil {
			err = fmt.Errorf("daemon serve: %w", serr)
		}
	}
	if d.alloc != nil {
		d.alloc.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
	return err
}

// daemonReplay replays the whole trace through the instance's clients and
// returns the replay's wall time in seconds.
func daemonReplay(cfg runConfig, sz daemonSizes, inst *daemonInst, acc *daemonAcc) (float64, error) {
	// Client 0 owns session 0, the trace's first join; the other clients
	// start once it is in, so no snapshot finds an empty population.
	ready := make(chan struct{})
	samples := make([]daemonSamples, len(inst.clients))
	var wg sync.WaitGroup
	loopStart := time.Now()
	for ci := range inst.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var started func()
			if ci == 0 {
				started = func() { close(ready) }
			} else {
				<-ready
			}
			samples[ci] = daemonClient(cfg, sz, inst.clients[ci], inst.w, inst.work[ci], uint64(ci), started)
		}(ci)
	}
	wg.Wait()
	loop := time.Since(loopStart).Seconds()

	for _, s := range samples {
		if s.err != nil {
			return 0, s.err
		}
	}
	if cfg.Tracer != nil {
		st, err := inst.clients[0].Stats()
		if err != nil {
			return 0, err
		}
		addStats(&acc.stats, st.Allocator)
	}
	for _, s := range samples {
		acc.merge(s)
	}
	return loop, nil
}

// daemonClient replays one connection's events in a closed loop. started,
// when non-nil, is called once the client's first join has completed.
func daemonClient(cfg runConfig, sz daemonSizes, c *admin.Client, w *churn.Workload, evs []event, client uint64, started func()) (s daemonSamples) {
	tr := cfg.Tracer
	defer func() {
		if started != nil {
			started()
		}
	}()
	tokens := make(map[int]uint64)
	// timed runs one RPC as a traced operation and records its latency. A
	// refusal by the server counts as a failed operation; any other error
	// (a broken connection) ends the replay.
	timed := func(op uint64, name string, dst *[]float64, call func() error) (ms float64, refused bool) {
		root := tr.Begin("bench", name, -1, op)
		sp := tr.Begin("admin", "admin.Client."+name, root, op)
		t := time.Now()
		err := call()
		ms = sinceMs(t)
		tr.End(sp)
		tr.End(root)
		s.ops++
		if err != nil {
			s.failed++
			if _, ok := err.(*admin.RPCError); ok {
				if len(s.refusals) < maxRefusals {
					s.refusals = append(s.refusals, fmt.Sprintf("%s: %v", name, err))
				}
				return ms, true
			}
			if s.err == nil {
				s.err = fmt.Errorf("daemon-ip %s: %w", name, err)
			}
			return ms, true
		}
		*dst = append(*dst, ms)
		if name != "Ping" {
			s.all = append(s.all, ms)
		}
		return ms, false
	}
	for i, ev := range evs {
		op := client<<32 | uint64(i)
		var refused bool
		switch ev.Kind {
		case evJoin:
			spec := w.Sessions[ev.Session]
			_, refused = timed(op, "Join", &s.join, func() error {
				p, err := c.Join(spec.Members, spec.Demand)
				if err == nil {
					tokens[ev.Session] = p.Session
				}
				return err
			})
			if started != nil {
				started()
				started = nil
			}
		case evLeave:
			tok, ok := tokens[ev.Session]
			if !ok {
				continue // its join was refused, and counted
			}
			_, refused = timed(op, "Leave", &s.leave, func() error { _, err := c.Leave(tok); return err })
		case evFault:
			_, refused = timed(op, "Fault", &s.fault, func() error {
				_, err := c.Fault(ev.From, ev.To, admin.FaultDrift, ev.Factor)
				return err
			})
		}
		if s.err != nil {
			return s
		}
		if refused {
			continue
		}

		refresh := (i+1)%sz.RefreshEvery == 0
		var before *admin.StatsResult
		if refresh && tr != nil {
			var err error
			if before, err = c.Stats(); err != nil {
				s.err = err
				return s
			}
		}
		var snap *admin.SnapshotResult
		name, dst := "Snapshot", &s.snap
		if refresh {
			name, dst = "SnapshotRefresh", &s.refresh
		}
		ms, refused := timed(op, name, dst, func() error {
			var err error
			snap, err = c.Snapshot(refresh)
			return err
		})
		if s.err != nil {
			return s
		}
		if refused {
			continue
		}
		// Checks run outside the timed calls.
		s.check(snap.MaxCongestion <= 1+congestionTol, "snapshot at epoch %d has link utilization %v > 1", snap.Epoch, snap.MaxCongestion)
		if refresh {
			s.check(snap.Throughput > 0, "refresh at epoch %d has throughput %v", snap.Epoch, snap.Throughput)
			s.throughputs = append(s.throughputs, snap.Throughput)
			if before != nil {
				after, err := c.Stats()
				if err != nil {
					s.err = err
					return s
				}
				if after.Allocator.ColdSolves > before.Allocator.ColdSolves {
					s.refreshCold = append(s.refreshCold, ms)
				} else {
					s.refreshWarm = append(s.refreshWarm, ms)
				}
			}
		} else {
			s.lastSnap = snap
		}
		if tr != nil && (i+1)%sz.PingEvery == 0 {
			if timed(op, "Ping", &s.ping, func() error { _, err := c.Ping(); return err }); s.err != nil {
				return s
			}
		}
	}
	return s
}
