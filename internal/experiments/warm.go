package experiments

// The warm-churn tier drives the v2 Allocator surface (session handles +
// warm-start incremental re-solve) with an arrival/departure trace and a
// periodic Snapshot cadence: the steady-state question is how many fresh
// ε-feasible fair allocations per second the allocator sustains while the
// population churns underneath it. The cold baseline answers the same
// question with warm-start disabled (every refresh is a full re-solve), so
// the pair of rows is the tentpole speedup measurement.

import (
	"fmt"
	"time"

	"overcast"
	"overcast/internal/churn"
	"overcast/internal/rng"
)

// WarmChurnConfig describes one warm-start churn replay.
type WarmChurnConfig struct {
	Nodes int // Waxman topology size
	// Arrival process (sessions per time unit, exponential mean lifetime,
	// trace length) and uniform session-size range.
	ArrivalRate      float64
	MeanLifetime     float64
	Horizon          float64
	SizeMin, SizeMax int
	Demand           float64
	Mu               float64 // online step size (default 30)
	Epsilon          float64 // FPTAS error for the fair allocation (default 0.1)
	Arbitrary        bool    // arbitrary dynamic routing instead of fixed IP
	// Engine selects the allocator's solver engine (see
	// overcast.AllocatorOptions.Engine); outputs are Engine-independent.
	Engine overcast.Engine
	// SnapshotEvery refreshes the fair allocation every N churn events
	// (default 4) — the consumer polling cadence.
	SnapshotEvery int
	// ColdBaseline disables warm-start (every refresh re-solves from
	// scratch); the warm row's speedup is measured against this.
	ColdBaseline bool
}

func (c *WarmChurnConfig) normalize() error {
	if c.Nodes < 8 {
		return fmt.Errorf("experiments: warm churn run needs >=8 nodes, got %d", c.Nodes)
	}
	// Defaults model the steady-state regime warm-start targets: a sizable
	// long-lived population (mean concurrency ≈ ArrivalRate·MeanLifetime ≈
	// 24) with one or two churn events between consecutive snapshots, so a
	// refresh repairs a small demand share instead of re-solving for everyone.
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 2
	}
	if c.MeanLifetime <= 0 {
		c.MeanLifetime = 12
	}
	if c.Horizon <= 0 {
		c.Horizon = 25
	}
	if c.SizeMin < 2 {
		c.SizeMin = 3
	}
	if c.SizeMax < c.SizeMin {
		c.SizeMax = c.SizeMin + 3
	}
	if c.Demand <= 0 {
		c.Demand = 1
	}
	if c.Mu <= 0 {
		c.Mu = 30
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1
	}
	return nil
}

// WarmChurnReport summarizes one replay.
type WarmChurnReport struct {
	Config          WarmChurnConfig
	Sessions        int // sessions in the trace
	PeakConcurrency int
	// Snapshots counts the ε-feasible fair allocations produced during the
	// replay; AllocationsPerSec is the steady-state rate they were sustained
	// at (Snapshots / ReplayTime).
	Snapshots         int
	AllocationsPerSec float64
	// WarmRefreshes / ColdSolves split the snapshots' refreshes by path;
	// RepairPhases counts warm session-phases and MSTOps the spanning-tree
	// computations across the whole replay (joins included).
	WarmRefreshes, ColdSolves int
	RepairPhases, MSTOps      int
	FinalActive               int
	// Throughput and MinRate describe the last snapshot's allocation (zero
	// when no session survives to the horizon); Throughputs records every
	// snapshot's overall throughput in event order, so two replays of the
	// same trace can be compared snapshot-by-snapshot.
	Throughput  float64
	MinRate     float64
	Throughputs []float64
	ReplayTime  time.Duration
}

// String renders the report for cmd/experiments output.
func (r WarmChurnReport) String() string {
	mode := "warm"
	if r.Config.ColdBaseline {
		mode = "cold"
	}
	return fmt.Sprintf("%-5s n=%-6d sessions=%-5d peak=%-4d snaps=%-5d warm=%-5d cold=%-5d repair=%-6d mstops=%-6d thpt=%-12.2f minrate=%-10.4f alloc/s=%-10.1f replay=%v",
		mode, r.Config.Nodes, r.Sessions, r.PeakConcurrency, r.Snapshots,
		r.WarmRefreshes, r.ColdSolves, r.RepairPhases, r.MSTOps,
		r.Throughput, r.MinRate, r.AllocationsPerSec,
		r.ReplayTime.Round(time.Millisecond))
}

// WarmChurnRun generates a deterministic churn trace and replays it through
// the v2 Allocator: every arrival is admitted online (and caught up to the
// anchored fair share at the next refresh), every departure rolled back
// exactly, and every SnapshotEvery events a fresh ε-feasible fair allocation
// is produced — incrementally warm-started unless cfg.ColdBaseline forces
// the cold path.
func WarmChurnRun(seed uint64, cfg WarmChurnConfig) (*WarmChurnReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	net, err := overcast.WaxmanNetwork(cfg.Nodes, 0, seed)
	if err != nil {
		return nil, err
	}
	trace, err := churn.Generate(churn.Config{
		Nodes:        cfg.Nodes,
		ArrivalRate:  cfg.ArrivalRate,
		MeanLifetime: cfg.MeanLifetime,
		Horizon:      cfg.Horizon,
		SizeMin:      cfg.SizeMin,
		SizeMax:      cfg.SizeMax,
		Demand:       cfg.Demand,
	}, rng.New(seed+1))
	if err != nil {
		return nil, err
	}
	routing := overcast.RoutingIP
	if cfg.Arbitrary {
		routing = overcast.RoutingArbitrary
	}
	opts := overcast.AllocatorOptions{
		Mu: cfg.Mu, Epsilon: cfg.Epsilon, Routing: routing,
		Engine: cfg.Engine,
	}
	if cfg.ColdBaseline {
		opts.RepairPhaseBudget = -1
	}
	alloc, err := overcast.NewAllocator(net, opts)
	if err != nil {
		return nil, err
	}
	defer alloc.Close()

	rep := &WarmChurnReport{
		Config:   cfg,
		Sessions: len(trace.Sessions), PeakConcurrency: trace.PeakConcurrency(),
	}
	start := time.Now()
	ids := make(map[int]overcast.SessionID, len(trace.Sessions))
	var last *overcast.Allocation
	for ei, ev := range trace.Events {
		spec := trace.Sessions[ev.Session]
		switch ev.Kind {
		case churn.Join:
			p, err := alloc.Join(overcast.Session{Members: spec.Members, Demand: spec.Demand})
			if err != nil {
				return nil, fmt.Errorf("experiments: warm churn join %d: %w", ev.Session, err)
			}
			ids[ev.Session] = p.Session
		case churn.Leave:
			// Departures clipped to the horizon are sessions still alive at
			// trace end; keep them admitted so the final allocation describes
			// the surviving population (mirrors ChurnRun).
			if spec.Depart >= cfg.Horizon {
				continue
			}
			if err := alloc.Leave(ids[ev.Session]); err != nil {
				return nil, fmt.Errorf("experiments: warm churn leave %d: %w", ev.Session, err)
			}
		}
		if (ei+1)%cfg.SnapshotEvery == 0 && alloc.Active() > 0 {
			if last, err = alloc.Snapshot(); err != nil {
				return nil, fmt.Errorf("experiments: warm churn snapshot at event %d: %w", ei, err)
			}
			rep.Snapshots++
			rep.Throughputs = append(rep.Throughputs, last.OverallThroughput())
		}
	}
	if alloc.Active() > 0 {
		if last, err = alloc.Snapshot(); err != nil {
			return nil, err
		}
		rep.Snapshots++
		rep.Throughputs = append(rep.Throughputs, last.OverallThroughput())
	}
	rep.ReplayTime = time.Since(start)
	if s := rep.ReplayTime.Seconds(); s > 0 {
		rep.AllocationsPerSec = float64(rep.Snapshots) / s
	}
	st := alloc.Stats()
	rep.WarmRefreshes, rep.ColdSolves = st.WarmRefreshes, st.ColdSolves
	rep.RepairPhases, rep.MSTOps = st.RepairPhases, st.MSTOps
	rep.FinalActive = alloc.Active()
	if last != nil {
		if err := last.Verify(); err != nil {
			return nil, fmt.Errorf("experiments: warm churn final allocation: %w", err)
		}
		rep.Throughput = last.OverallThroughput()
		rep.MinRate = last.MinSessionRate()
	}
	return rep, nil
}

// WarmQuality compares two replays of the same trace snapshot-by-snapshot
// and returns the mean warm/cold overall-throughput ratio (1.0 = warm-start
// matches the cold baseline exactly; the FPTAS target band is ≥ 1/(1+ε)).
// Averaging over every snapshot, rather than inspecting only the final one,
// removes the noise from where the last re-anchor happened to fall.
func WarmQuality(warm, cold *WarmChurnReport) float64 {
	n := len(warm.Throughputs)
	if len(cold.Throughputs) < n {
		n = len(cold.Throughputs)
	}
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		if cold.Throughputs[i] > 0 {
			sum += warm.Throughputs[i] / cold.Throughputs[i]
		}
	}
	return sum / float64(n)
}

// WarmChurnPair replays the same trace twice — warm-start on, then the cold
// baseline — and returns both reports. The warm row's AllocationsPerSec over
// the cold row's is the steady-state speedup the incremental re-solve buys.
func WarmChurnPair(seed uint64, cfg WarmChurnConfig) (warm, cold *WarmChurnReport, err error) {
	cfg.ColdBaseline = false
	if warm, err = WarmChurnRun(seed, cfg); err != nil {
		return nil, nil, err
	}
	cfg.ColdBaseline = true
	if cold, err = WarmChurnRun(seed, cfg); err != nil {
		return nil, nil, err
	}
	return warm, cold, nil
}
