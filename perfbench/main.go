// Command perfbench is the repository benchmark. It runs one named workload
// from a seed, prints every end-to-end metric by name with its unit, checks
// the program's outputs, and with -trace 1 reports per-layer metrics instead.
//
//	go build -o perfbench . && ./perfbench -workload churn-arb -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it carries the
// run's details: sample counts, workload-specific figures and the machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runDir holds sockets and span files, relative to the working directory.
const runDir = ".bench_build/run"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives: the seed and the run length,
// plus where to put sockets and whether to trace.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Tracer  *Tracer // nil when untraced
	Dir     string  // scratch directory for sockets and trace files
	Tiny    bool    // smoke-test sizes
}

func (c runConfig) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.Seconds * float64(time.Second)))
}

// replayRuns sets up setups times in all: the first setups-1 instances are
// only timed and released, so that setup_s is a median; then every replay
// sets up a fresh instance, and another replay starts only while the last
// one, set-up included, would still end before the deadline. The work of a
// replay is fixed; the number of replays is what adapts to the machine. It
// returns every set-up time, the replay times summed, and the replay count.
func replayRuns[T any](setups int, deadline time.Time, setup func(idx int) (T, error),
	release func(T) error, replay func(inst T, idx int) (float64, error)) (setupS []float64, loopS float64, replays int, err error) {
	open := func(idx int) (T, error) {
		t := time.Now()
		inst, err := setup(idx)
		setupS = append(setupS, time.Since(t).Seconds())
		return inst, err
	}
	for i := 0; i < setups-1; i++ {
		inst, err := open(i)
		if err == nil {
			err = release(inst)
		}
		if err != nil {
			return nil, 0, 0, err
		}
	}
	var last time.Duration
	for ; replays == 0 || time.Now().Add(last).Before(deadline); replays++ {
		t := time.Now()
		inst, err := open(setups - 1 + replays)
		if err != nil {
			return nil, 0, 0, err
		}
		loop, err := replay(inst, replays)
		if rerr := release(inst); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, 0, 0, err
		}
		loopS += loop
		last = time.Since(t)
	}
	return setupS, loopS, replays, nil
}

// report collects one workload run.
type report struct {
	attempted, failed int
	checked           int      // output checks evaluated
	checks            []string // failed output checks
	e2e               map[string]metric
	layer             map[string]metric
	detail            map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, detail: map[string]any{}}
}

func (r *report) check(ok bool, format string, args ...any) {
	r.checked++
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// latency records a sample set's median, its p90 when the rule allows one,
// and its sample count in the detail map, under name.
func (r *report) latency(name string, ms []float64) {
	r.detail[name+"_n"] = len(ms)
	if len(ms) == 0 {
		return
	}
	r.detail[name+"_p50_ms"] = median(ms)
	if v, ok := p90(ms); ok {
		r.detail[name+"_p90_ms"] = v
	}
}

var workloads = map[string]func(runConfig) (*report, error){
	"daemon-ip": runDaemonIP,
	"churn-arb": runChurnArb,
	"cold-mcf":  runColdMCF,
}

// sinceMs is the time elapsed since t, in milliseconds.
func sinceMs(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// layerShares adds each traced layer's share of the total self time.
func layerShares(rep *report, spans []Span) {
	self := layerSelf(spans)
	var total int64
	for _, v := range self {
		total += v
	}
	for _, l := range []string{"bench", "admin", "overcast", "topology", "churn", "underlay"} {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		rep.layer[l+".self_share"] = metric{share, "ratio"}
	}
	rep.layer["trace.spans"] = metric{float64(len(spans)), "count"}
	var gen []float64
	for _, s := range spans {
		if s.Name == "overcast.WaxmanNetwork" || s.Name == "overcast.TwoLevelNetwork" {
			gen = append(gen, float64(s.End-s.Start)/1e9)
		}
	}
	rep.layer["topology.gen_s"] = metric{median(gen), "s"}
}

// spanCostNs measures what recording one span costs.
func spanCostNs() float64 {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.End(t.Begin("bench", "probe", -1, uint64(i)))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

func run(name string, cfg runConfig) (*result, map[string]any, error) {
	fn, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for k := range workloads {
			names = append(names, k)
		}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	wallStart := time.Now()
	heap := startHeapSampler()
	rep, err := fn(cfg)
	heapPeak := heap.stop()
	if err != nil {
		return nil, nil, err
	}
	rep.e2e["mem_peak_mb"] = metric{heapPeak, "MB"}
	rep.detail["rss_peak_mb"] = peakRSSMB()
	res := &result{Correct: len(rep.checks) == 0, Attempted: rep.attempted, Failed: rep.failed}
	if rep.attempted > 0 {
		rep.detail["error_rate"] = float64(rep.failed) / float64(rep.attempted)
	}
	if cfg.Tracer != nil {
		spans := cfg.Tracer.Spans()
		layerShares(rep, spans)
		cost := spanCostNs()
		wall := float64(time.Since(wallStart).Nanoseconds())
		rep.layer["trace.span_ns"] = metric{cost, "ns"}
		rep.layer["trace.overhead_pct"] = metric{100 * cost * float64(len(spans)) / wall, "%"}
		for k, v := range rep.e2e {
			rep.layer["traced."+k] = v
		}
		res.Metrics = rep.layer
		path := filepath.Join(cfg.Dir, fmt.Sprintf("spans-%s-%d.json", name, cfg.Seed))
		if err := cfg.Tracer.WriteFile(path); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		rep.detail["spans_file"] = path
	} else {
		res.Metrics = rep.e2e
	}
	rep.detail["workload"] = name
	rep.detail["seed"] = cfg.Seed
	rep.detail["seconds"] = cfg.Seconds
	rep.detail["trace"] = cfg.Tracer != nil
	rep.detail["nproc"] = runtime.NumCPU()
	rep.detail["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.detail["go_version"] = runtime.Version()
	rep.detail["checks"] = rep.checked
	rep.detail["checks_failed"] = rep.checks
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s is not finite: %v", k, v.Value)
		}
	}
	return res, rep.detail, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: daemon-ip, churn-arb or cold-mcf")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Dir: runDir}
	if *trace == 1 {
		cfg.Tracer = newTracer()
	}
	res, detail, err := run(*workload, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	d, err := json.Marshal(map[string]any{"detail": detail})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(d))
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed:", detail["checks_failed"])
		os.Exit(1)
	}
}

// heapSampler tracks the largest live heap the collector reports while it
// runs. Reading runtime metrics does not stop the world, so sampling does not
// perturb the workload.
type heapSampler struct {
	done chan struct{}
	peak chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.done:
				h.peak <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in MB.
func (h *heapSampler) stop() float64 {
	close(h.done)
	return <-h.peak
}
