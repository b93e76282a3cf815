// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process (tpcc-replay, cluster-outage or gateway-http),
// checks the program's outputs, and prints every metric by name with its
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer breakdown, measured by timers and counters the
// benchmark wraps around its own calls into each layer (nothing inside
// the program is instrumented). See README.md for every metric's
// definition and clock.
//
//	go build -o perfbench.bin . && ./perfbench.bin -workload tpcc-replay -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/des"
	"repro/internal/stats"
)

// processStart approximates process start: package initialisation runs
// before main, after the runtime has started.
var processStart = time.Now()

// A run builds its inputs and system at least minSetups times, and more
// until setupSeconds have passed (at most maxSetups), and reports the
// median set-up time: the simulated workloads set up in well under a
// millisecond, and one sample of that is mostly noise.
const (
	minSetups    = 3
	maxSetups    = 200
	setupSeconds = 0.5
)

// minRounds is the fewest timed rounds a run makes, even past -seconds,
// so that every host metric is a median of several rounds.
const minRounds = 3

// sloBound is the response-time limit the compliance metric counts
// against: the repository's brickLossSLO / chaosSLO.
const sloBound = 50 * des.Millisecond

// chunkOps is how many completions one host-time sample of the simulated
// workloads covers (des.chunk_us_p50/p99 are per-op host cost over chunks
// of this many ops).
const chunkOps = 1024

// spanSampleEvery is the traced run's span sampling rate: spans are kept
// for one op id in this many. Aggregate per-layer timings cover every call.
const spanSampleEvery = 64

// benchWorkload is one benchmark workload. setup synthesizes the inputs from
// the seed and builds the system once (a set-up sample); round builds a
// fresh system from the same inputs and runs the timed phase once.
type benchWorkload interface {
	// setup returns the seconds spent synthesizing inputs and in all of
	// set-up, teardown excluded.
	setup(seed int64) (genSec, setupSec float64, err error)
	round(tr *tracer, workers int) (*roundResult, error)
	// check runs the workload's output checks against a finished round.
	check(r *roundResult) error
}

// roundResult is one timed round's outcome.
type roundResult struct {
	hostSec   float64 // host seconds of the timed phase
	ops       int     // logical ops completed
	attempted int     // ops attempted, retries and refusals included
	failed    int     // ops that errored (not refusals by design)
	refused   int     // 429s and other refusals by design
	mallocs   uint64
	// hostUs holds host-time samples in µs: per-request round trips
	// (gateway-http) or per-op host cost over chunkOps-op chunks.
	hostUs []float64
	events uint64

	sim     stats.Collector // sim latencies of successful reads and sync writes
	sloOK   int             // successes within sloBound
	simSpan des.Time        // sim time from start to last completion
	digest  string          // every sim metric and count of the round

	// layers holds the per-layer metrics a traced round measured.
	layers map[string]float64
	// extra holds workload-specific state the checks need.
	extra any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "tpcc-replay, cluster-outage or gateway-http")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed phase length in host seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	spans := flag.String("spans", "", "traced run: write sampled spans here as JSON lines")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "tpcc-replay":
		return &tpccWorkload{}, nil
	case "cluster-outage":
		return &clusterWorkload{}, nil
	case "gateway-http":
		return &gatewayWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tpcc-replay, cluster-outage or gateway-http)", name)
}

func run(name string, seed int64, seconds float64, traced bool, spanPath string) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	nproc := runtime.GOMAXPROCS(0)

	// Set-up: the first sample also counts the time from process start.
	var setupS, genS []float64
	setupStart := time.Now()
	for len(setupS) < minSetups || len(setupS) < maxSetups && time.Since(setupStart).Seconds() < setupSeconds {
		g, s, err := w.setup(seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if len(setupS) == 0 {
			s += setupStart.Sub(processStart).Seconds()
		}
		setupS = append(setupS, s)
		genS = append(genS, g)
	}

	// Timed phase: identical rounds until the time is spent. A traced run
	// alternates untraced and traced rounds so the tracing overhead is a
	// paired ratio.
	//
	// The sharded workload times its rounds at one epoch worker. At nproc=2
	// a second worker slows it down (des.worker_speedup < 1), its timing
	// swings with the load on the other CPU (ops_per_s spread 0.36 over ten
	// seeds, beyond any bound the benchmark may set), and every engine
	// started with workers leaks (des.heap_growth_mb_per_round). So nproc
	// workers run in extra rounds: one per run, whose digest must match,
	// and in a traced run one per cycle, which give the speed-up.
	var plain, tracedRounds, multi []*roundResult
	tr := newTracer()
	// once runs one round into *into. Every round starts from a collected
	// heap, and only the first keeps its full state (the checks read it),
	// so that max_rss_mb does not grow with the number of rounds.
	// heap1 is the live heap once the first round is done, and rounds
	// counts all rounds.
	var heap1 uint64
	rounds := 0
	once := func(into *[]*roundResult, t *tracer, workers int) error {
		runtime.GC()
		if rounds == 1 {
			heap1 = liveHeap()
		}
		r, err := w.round(t, workers)
		if err != nil {
			return err
		}
		if rounds++; rounds > 1 {
			r.sim, r.extra = stats.Collector{}, nil
		}
		if !traced {
			r.hostUs = nil // only the per-layer latency percentiles read them
		}
		*into = append(*into, r)
		return nil
	}
	_, sharded := w.(*clusterWorkload)
	workers := nproc
	if sharded {
		workers = 1
	}
	start := time.Now()
	for len(plain) < minRounds || time.Since(start).Seconds() < seconds {
		if err := once(&plain, nil, workers); err != nil {
			return err
		}
		if !traced {
			continue
		}
		tr.round = len(tracedRounds)
		if err := once(&tracedRounds, tr, workers); err != nil {
			return err
		}
		if sharded && nproc > 1 {
			if err := once(&multi, nil, nproc); err != nil {
				return err
			}
		}
	}
	if sharded && !traced && nproc > 1 {
		if err := once(&multi, nil, nproc); err != nil {
			return err
		}
	}

	runtime.GC()
	growthMB := (float64(liveHeap()) - float64(heap1)) / float64(rounds-1) / (1 << 20)

	first := plain[0]
	var problems []string
	all := append(append(append([]*roundResult{}, plain...), tracedRounds...), multi...)
	for i, r := range all {
		if r.digest != first.digest {
			problems = append(problems, fmt.Sprintf("round %d digest differs from round 0:\n  %s\n  %s", i, r.digest, first.digest))
			break
		}
	}
	if err := w.check(first); err != nil {
		problems = append(problems, err.Error())
	}

	out := output{Correct: len(problems) == 0, Metrics: map[string]metric{}}
	for _, r := range plain {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	if traced {
		layerMetrics(out.Metrics, name, plain, tracedRounds, multi, genS)
		out.Metrics["des.heap_growth_mb_per_round"] = metric{growthMB, "MB"}
		if spanPath != "" {
			if err := tr.write(spanPath); err != nil {
				return err
			}
		}
	} else {
		endToEnd(out.Metrics, plain, setupS)
	}

	fmt.Printf("workload %s seed %d: %d set-ups, %d rounds, digest %s\n", name, seed, len(setupS), len(plain), digestOf(first.digest))
	fmt.Println("digest text:", first.digest)
	if traced {
		fmt.Printf("spans: %d kept (one op id in %d sampled)\n", len(tr.spans), spanSampleEvery)
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.Metrics[k]
		fmt.Printf("  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
	return nil
}

// endToEnd fills the end-to-end metrics from the untraced rounds. Host
// figures are medians over rounds (set-up: over set-up samples); sim
// figures come from the first round, which every other round matched.
func endToEnd(m map[string]metric, rounds []*roundResult, setupS []float64) {
	first := rounds[0]
	var rates, allocs []float64
	for _, r := range rounds {
		rates = append(rates, float64(r.ops)/r.hostSec)
		allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
	}
	m["setup_s"] = metric{median(setupS), "s"}
	m["ops_per_s"] = metric{median(rates), "ops/s"}
	m["sim_us_p50"] = metric{float64(first.sim.Percentile(50)), "sim_us"}
	m["sim_us_p99"] = metric{float64(first.sim.Percentile(99)), "sim_us"}
	m["sim_ops_per_s"] = metric{float64(first.ops) / first.simSpan.Seconds(), "ops/sim_s"}
	m["sim_slo_frac"] = metric{float64(first.sloOK) / float64(first.attempted), "fraction"}
	m["served_frac"] = metric{1 - float64(first.failed+first.refused)/float64(first.attempted), "fraction"}
	m["allocs_per_op"] = metric{median(allocs), "count"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
}

// layerNames lists every per-layer metric with its unit; a workload that
// does not run a layer reports 0 for it (README.md lists which apply).
var layerNames = [][2]string{
	{"tracegen.gen_s", "s"},
	{"des.events_per_op", "count"},
	{"des.events_per_s", "1/s"},
	{"des.run_self_s", "s"},
	{"des.worker_speedup", "ratio"},
	{"des.heap_growth_mb_per_round", "MB"},
	{"des.chunk_us_p50", "us"},
	{"des.chunk_us_p99", "us"},
	{"core.submit_ns", "ns"},
	{"core.sim_queue_us", "sim_us"},
	{"core.sim_seek_us", "sim_us"},
	{"core.sim_rotate_us", "sim_us"},
	{"core.sim_transfer_us", "sim_us"},
	{"core.sim_overhead_us", "sim_us"},
	{"core.sheds", "count"},
	{"bus.commands_per_op", "count"},
	{"disk.busy_frac", "fraction"},
	{"calib.miss_frac", "fraction"},
	{"sched.picks_per_op", "count"},
	{"sched.queue_at_pick", "count"},
	{"sched.wait_us_p99", "sim_us"},
	{"sched.read_wait_us_p99", "sim_us"},
	{"sched.write_wait_us_p99", "sim_us"},
	{"sched.read_wait_us_mean", "sim_us"},
	{"sched.write_wait_us_mean", "sim_us"},
	{"disk.read_service_us_p99", "sim_us"},
	{"disk.write_service_us_p99", "sim_us"},
	{"disk.read_service_us_mean", "sim_us"},
	{"disk.write_service_us_mean", "sim_us"},
	{"cluster.submit_ns", "ns"},
	{"cluster.read_submit_ns", "ns"},
	{"cluster.write_submit_ns", "ns"},
	{"cluster.replica_ios_per_op", "count"},
	{"cluster.read_failovers", "count"},
	{"cluster.trips", "count"},
	{"cluster.probes", "count"},
	{"cluster.diverged", "count"},
	{"cluster.backfilled", "count"},
	{"cluster.abandoned", "count"},
	{"cluster.backfill_sim_s", "sim_s"},
	{"cluster.read_sim_us_p50", "sim_us"},
	{"cluster.read_sim_us_p99", "sim_us"},
	{"cluster.write_sim_us_p50", "sim_us"},
	{"cluster.write_sim_us_p99", "sim_us"},
	{"cluster.read_only_host_us_per_op", "us"},
	{"cluster.write_only_host_us_per_op", "us"},
	{"slo.windows_judged", "count"},
	{"slo.escalations", "count"},
	{"slo.sheds", "count"},
	{"gateway.barriers_per_op", "count"},
	{"gateway.rate_limited", "count"},
	{"gateway.sleeps", "count"},
	{"gateway.self_us_p50", "us"},
	{"http.handler_us_p50", "us"},
	{"http.transport_us_p50", "us"},
	{"http.roundtrip_us_p50", "us"},
	{"http.roundtrip_us_p99", "us"},
	{"trace.ops_ratio", "ratio"},
}

// layerMetrics fills the per-layer metrics. A round's layer keys prefixed
// "host:" are host timings, reported as the median over the traced rounds;
// the others (counts, sim figures) come from the first traced round, as
// every round has the same digest.
func layerMetrics(m map[string]metric, name string, plain, traced, multi []*roundResult, genS []float64) {
	for _, nu := range layerNames {
		m[nu[0]] = metric{0, nu[1]}
	}
	set := func(k string, v float64) {
		if old, ok := m[k]; ok {
			m[k] = metric{v, old.Unit}
		} else {
			panic("perfbench: undeclared per-layer metric " + k)
		}
	}
	hostMed := func(k string) float64 {
		var vs []float64
		for _, r := range traced {
			vs = append(vs, r.layers[k])
		}
		return median(vs)
	}
	for k := range traced[0].layers {
		if strings.HasPrefix(k, "host:") {
			set(strings.TrimPrefix(k, "host:"), hostMed(k))
		} else {
			set(k, traced[0].layers[k])
		}
	}
	if name == "tpcc-replay" {
		set("tracegen.gen_s", median(genS))
	}
	// Host latency percentiles, from the untraced rounds: HTTP round trips,
	// or per-op host cost over chunks of completions.
	var host []float64
	for _, r := range plain {
		host = append(host, r.hostUs...)
	}
	prefix := "des.chunk_us_p"
	if name == "gateway-http" {
		prefix = "http.roundtrip_us_p"
	}
	set(prefix+"50", percentile(host, 50))
	set(prefix+"99", percentile(host, 99))
	var events, rates, trates []float64
	for _, r := range plain {
		events = append(events, float64(r.events)/r.hostSec)
		rates = append(rates, float64(r.ops)/r.hostSec)
	}
	for _, r := range traced {
		trates = append(trates, float64(r.ops)/r.hostSec)
	}
	set("des.events_per_op", float64(plain[0].events)/float64(plain[0].ops))
	set("des.events_per_s", median(events))
	set("trace.ops_ratio", median(trates)/median(rates))
	if len(multi) > 0 {
		var one, many []float64
		for _, r := range plain {
			one = append(one, r.hostSec)
		}
		for _, r := range multi {
			many = append(many, r.hostSec)
		}
		set("des.worker_speedup", median(one)/median(many))
	}
}

// median returns the middle value (mean of the two middle values).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile, as stats.Collector
// computes it.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digestOf folds a round's digest text to a short hex fingerprint.
func digestOf(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// liveHeap reads the bytes of allocated heap objects (live, right after a
// collection).
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// chunkClock samples host time every chunkOps completions.
type chunkClock struct {
	n    int
	last time.Time
	us   []float64
}

func (c *chunkClock) start() { c.last = time.Now() }

func (c *chunkClock) done() {
	c.n++
	if c.n%chunkOps == 0 {
		now := time.Now()
		c.us = append(c.us, float64(now.Sub(c.last).Nanoseconds())/1e3/chunkOps)
		c.last = now
	}
}
