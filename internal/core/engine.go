package core

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/shard"
)

// PlaneMode selects how much per-member Dijkstra work the batched oracle
// rounds share through the solve-scoped SSSP plane (overlay.BatchRunner).
// The modes form a ladder, each step switching off what the step above adds.
// All produce bit-identical outputs; they exist for the determinism gate and
// perf comparisons, and are irrelevant under fixed routing.
type PlaneMode uint8

const (
	// PlaneSubtree (the zero value): plane rows persist across rounds, rows
	// whose stored SSSP tree took no touched edge skip their Dijkstra, and
	// touched rows resume Dijkstra over only the affected subtrees when the
	// bit-identity certificate holds.
	PlaneSubtree PlaneMode = iota
	// PlaneRefill refills every touched row in full.
	PlaneRefill
	// PlaneRound recomputes one row per distinct member source every round.
	PlaneRound
	// PlaneOff has every oracle run its own Dijkstras.
	PlaneOff
)

var planeModeNames = [...]string{"subtree", "refill", "round", "off"}

// String returns the mode's ParseEngine spelling.
func (m PlaneMode) String() string {
	if int(m) < len(planeModeNames) {
		return planeModeNames[m]
	}
	return fmt.Sprintf("PlaneMode(%d)", m)
}

// Engine selects how a solve evaluates its oracles. Every setting moves
// wall-clock time only: outputs are bit-identical for every Engine, which
// the detdump determinism gate checks. The zero value is the default.
type Engine struct {
	// Workers is the oracle worker-pool size (per shard when sharded). 0
	// means GOMAXPROCS, or 1 for a MaxFlow/MaxConcurrentFlow solve without
	// Parallel set; Workers=1 forces the sequential path.
	Workers int
	// Plane is the shared SSSP plane's mode.
	Plane PlaneMode
	// Shards splits each oracle round across per-AS shard goroutines, each
	// with its own length-ledger replica and SSSP plane, synchronized once
	// per round by cut-edge price messages (internal/shard). 0 = unsharded.
	Shards int
}

// String renders e as a ParseEngine spec, e.g. "workers=8,shards=4,plane=off",
// omitting zero settings, so the zero Engine renders "".
func (e Engine) String() string {
	var parts []string
	if e.Workers != 0 {
		parts = append(parts, "workers="+strconv.Itoa(e.Workers))
	}
	if e.Shards != 0 {
		parts = append(parts, "shards="+strconv.Itoa(e.Shards))
	}
	if e.Plane != PlaneSubtree {
		parts = append(parts, "plane="+e.Plane.String())
	}
	return strings.Join(parts, ",")
}

// ParseEngine parses comma-separated key=value settings: workers and shards
// take non-negative integers, plane one of subtree, refill, round or off.
// Each key may appear once; omitted keys stay zero, so "" is the zero Engine.
func ParseEngine(spec string) (Engine, error) {
	var e Engine
	if spec == "" {
		return e, nil
	}
	seen := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return Engine{}, fmt.Errorf("core: engine setting %q is not key=value", tok)
		}
		if seen[key] {
			return Engine{}, fmt.Errorf("core: engine setting %q repeats key %q", tok, key)
		}
		seen[key] = true
		var count *int
		switch key {
		case "workers":
			count = &e.Workers
		case "shards":
			count = &e.Shards
		case "plane":
			i := slices.Index(planeModeNames[:], val)
			if i < 0 {
				return Engine{}, fmt.Errorf("core: engine setting %q: plane takes one of %s",
					tok, strings.Join(planeModeNames[:], ", "))
			}
			e.Plane = PlaneMode(i)
			continue
		default:
			return Engine{}, fmt.Errorf("core: engine setting %q: unknown key %q (have workers, shards, plane)", tok, key)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return Engine{}, fmt.Errorf("core: engine setting %q: %s takes a non-negative integer", tok, key)
		}
		*count = n
	}
	return e, nil
}

// Runner is the batched oracle-evaluation surface the phase loops consume,
// satisfied by overlay.BatchRunner and shard.Group alike: results in
// batch-slot order under the snapshot's lengths, a reused result slice,
// immutable trees, and bitwise identical output for every Engine.
type Runner interface {
	MinTrees(ls *graph.LengthStore, ids []int) []overlay.BatchResult
	MinTreesLen(ls *graph.LengthStore, ids []int) []overlay.BatchResult
	AddOracle(o overlay.TreeOracle) int
	Metrics() overlay.Metrics
	Close()
}

// NewRunner builds the oracle runner e selects: a shard.Group partitioned by
// labels (nil = contiguous node ranges) when e.Shards > 0, else a plain
// overlay.BatchRunner; Workers 0 means GOMAXPROCS. seed and dynamic pass
// through to overlay.BatchOptions. A seeded runner (the MCF beta prestep's
// subsolves) stays unsharded: a seed plane is keyed to one ledger.
func NewRunner(g *graph.Graph, oracles []overlay.TreeOracle, e Engine, labels []int, seed *overlay.Plane, dynamic bool) Runner {
	bo, so := e.runnerOptions(labels, seed, dynamic)
	if so != nil {
		return shard.NewGroup(g, oracles, *so)
	}
	return overlay.NewBatchRunnerOpts(g, oracles, bo)
}

// runnerOptions is the one place an Engine becomes the runner layer's
// option structs: the overlay.BatchOptions of a single-machine runner and,
// when NewRunner shards, the shard.Options of the group (nil otherwise).
func (e Engine) runnerOptions(labels []int, seed *overlay.Plane, dynamic bool) (overlay.BatchOptions, *shard.Options) {
	bo := overlay.BatchOptions{
		Workers:              e.Workers,
		SharedPlane:          e.Plane != PlaneOff,
		DisableRepair:        e.Plane == PlaneRound,
		DisableSubtreeRepair: e.Plane == PlaneRefill,
		Seed:                 seed,
		Dynamic:              dynamic,
	}
	if e.Shards <= 0 || seed != nil {
		return bo, nil
	}
	return bo, &shard.Options{
		Shards:               e.Shards,
		Labels:               labels,
		Workers:              bo.Workers,
		SharedPlane:          bo.SharedPlane,
		DisableRepair:        bo.DisableRepair,
		DisableSubtreeRepair: bo.DisableSubtreeRepair,
		Dynamic:              dynamic,
	}
}

// resolved returns e with a concrete oracle worker-pool size. An explicit
// Workers value always wins (1 forces the sequential path even with parallel
// set, which is what the detdump cross-worker determinism gate sweeps);
// Workers == 0 falls back to GOMAXPROCS when parallel is set and to 1
// otherwise.
func (e Engine) resolved(parallel bool) Engine {
	if e.Workers > 0 {
		return e
	}
	e.Workers = 1
	if parallel {
		e.Workers = runtime.GOMAXPROCS(0)
	}
	return e
}
