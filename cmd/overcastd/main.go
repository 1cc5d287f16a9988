// Command overcastd is the long-running allocator daemon: it owns a root
// overcast.Allocator over a generated (or custom-seeded) topology and serves
// Join/Leave/Rebalance/Snapshot/Fault/Stats over a local unix admin socket
// (newline-delimited JSON RPC, protocol v1 — see internal/admin).
//
// The daemon adds what the library cannot: serialized mutation with
// concurrent snapshot reads, periodic state snapshots to disk for crash
// recovery (restart with the same -state path restores the session
// population by replaying warm joins and serves the persisted allocation
// bit-identically until the next refresh), graceful drain on SIGTERM/SIGINT
// (a final state snapshot is persisted before exit), and admission control
// (-max-sessions, -max-congestion, and -strict-admission with a positive
// -budget).
//
// -engine sets the solver engine (see core.ParseEngine), e.g.
// -engine workers=4,plane=off; "" keeps the default engine. It moves
// wall-clock time only: allocations are identical for every engine.
//
// Usage:
//
//	overcastd -socket /run/overcast/admin.sock -state /var/lib/overcast/state.json \
//	          [-nodes N] [-capacity C] [-seed S] [-routing ip|arbitrary]
//	          [-mu MU] [-epsilon E] [-engine SPEC] [-budget PHASES]
//	          [-snapshot-every DUR] [-max-sessions N] [-max-congestion C]
//	          [-strict-admission] [-drain-timeout DUR]
//
// Drive it with cmd/overcastctl (ping, join, leave, rebalance, snapshot,
// stats, metrics, fault, drain) speaking the same protocol. The fault op
// injects underlay events (link-down/link-up/drift) into the live allocator;
// each effective fault advances the epoch and fans one frame out to watch
// streams. Fault state lives in the allocator only — it is NOT persisted in
// state snapshots, so a restarted daemon starts from healthy capacities.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"overcast"
	"overcast/internal/admin"
	"overcast/internal/core"
)

func main() {
	socket := flag.String("socket", "overcastd.sock", "unix admin socket path")
	state := flag.String("state", "", "state snapshot path for crash recovery (empty disables persistence)")
	snapshotEvery := flag.Duration("snapshot-every", 30*time.Second, "periodic state-snapshot cadence")
	nodes := flag.Int("nodes", 100, "topology size (BRITE-style Waxman)")
	capacity := flag.Float64("capacity", 100, "uniform link capacity")
	seed := flag.Uint64("seed", 1, "topology seed")
	routingFlag := flag.String("routing", "ip", "ip | arbitrary")
	mu := flag.Float64("mu", 30, "online step size")
	epsilon := flag.Float64("epsilon", 0.1, "FPTAS error parameter for snapshot/rebalance allocations")
	spec := flag.String("engine", "", "solver engine spec, e.g. workers=4,plane=off (\"\" = default); allocations are engine-independent")
	budget := flag.Int("budget", 0, "warm RepairPhaseBudget in session-phases (0 = unbounded, <0 = always cold)")
	maxSessions := flag.Int("max-sessions", 0, "admission: reject joins beyond this many active sessions (0 = unlimited)")
	maxCongestion := flag.Float64("max-congestion", 0, "admission: reject joins pushing online congestion above this (0 = unlimited)")
	strict := flag.Bool("strict-admission", false, "admission: reject joins warm repair cannot absorb within -budget")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "how long a drain waits for idle connections")
	flag.Parse()
	engine, err := core.ParseEngine(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overcastd:", err)
		os.Exit(2)
	}

	if err := run(*socket, *state, *snapshotEvery, *nodes, *capacity, *seed, *routingFlag,
		*mu, *epsilon, engine, *budget, *maxSessions, *maxCongestion, *strict, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "overcastd:", err)
		os.Exit(1)
	}
}

func run(socket, state string, snapshotEvery time.Duration, nodes int, capacity float64, seed uint64,
	routingFlag string, mu, epsilon float64, engine core.Engine, budget, maxSessions int, maxCongestion float64,
	strict bool, drainTimeout time.Duration) error {

	logger := log.New(os.Stderr, "overcastd: ", log.LstdFlags)

	net, err := overcast.WaxmanNetwork(nodes, capacity, seed)
	if err != nil {
		return err
	}
	routing := overcast.RoutingIP
	if routingFlag == "arbitrary" {
		routing = overcast.RoutingArbitrary
	}
	alloc, err := overcast.NewAllocator(net, overcast.AllocatorOptions{
		Mu: mu, Epsilon: epsilon, Routing: routing, Engine: engine,
		RepairPhaseBudget: budget,
	})
	if err != nil {
		return err
	}
	defer alloc.Close()

	srv, err := admin.NewServer(alloc, admin.Options{
		SocketPath:      socket,
		StatePath:       state,
		SnapshotEvery:   snapshotEvery,
		MaxSessions:     maxSessions,
		MaxCongestion:   maxCongestion,
		StrictAdmission: strict,
		DrainTimeout:    drainTimeout,
		Logf:            logger.Printf,
	})
	if err != nil {
		return err
	}
	restored, err := srv.Restore()
	if err != nil {
		return err
	}
	if restored > 0 {
		logger.Printf("recovered %d sessions from %s", restored, state)
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	logger.Printf("serving on %s (%s, %d nodes, %d links, %s routing, protocol v%d)",
		socket, net.Name(), net.Nodes(), net.Links(), routingFlag, admin.ProtocolVersion)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		got := <-sig
		logger.Printf("received %v, draining", got)
		srv.Drain()
	}()

	// Serve returns nil after a graceful drain — SIGTERM or a drain RPC —
	// with the final state snapshot already persisted.
	return srv.Serve()
}
