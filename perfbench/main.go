// Command perfbench is the end-to-end benchmark of the served IM-GRN
// system. It builds one deployment shape in-process on loopback
// listeners, drives it over HTTP with a seeded workload, checks every
// answer, and prints each metric by name with its unit and sample count.
// The last line of standard output is a JSON summary.
//
//	go run . --workload explore_mc --seed 1 --seconds 18 --trace 0
//
// See README.md for the workloads, the metrics and how they are measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/imgrn/imgrn/internal/randgen"
)

// The metric names of the JSON summary: end-to-end ones with --trace 0,
// per-layer ones with --trace 1. BENCHMARK.json lists the same names.
var (
	endToEndMetrics = []string{"setup_s", "cpu_ms_per_request", "heap_mb"}
	perLayerMetrics = []string{
		"grn.infer_ms", "core.traverse_ms",
		"core.node_pairs", "core.node_prune_ratio", "core.point_pairs", "core.point_prune_ratio",
		"core.candidates", "core.answer_ratio", "core.markov_ms", "core.l5_prune_ratio",
		"core.monte_carlo_ms", "core.cache_hit_rate", "core.cache_entries",
		"pagestore.pages_per_query", "pagestore.buffer_hit_ratio", "plan.samples",
		"batch.groups_per_batch", "batch.item_ms", "shard.scatter_ms", "shard.merge_ms",
		"cluster.rpc_ms", "cluster.rpcs_per_query", "cluster.hedge_rate", "cluster.hedge_win_rate", "cluster.retry_rate",
		"wal.fsyncs_per_write", "wal.bytes_per_write", "wal.append_sync_ms",
		"snapshot.checkpoints", "snapshot.checkpoint_ms",
		"server.overhead_ms", "server.encode_ms", "server.shed",
		"gen.late_p99_ms", "gen.wait_ms", "trace.overhead_ms",
	}
)

const (
	// setupRuns is how many times a run sets the deployment up; setup_s
	// is the median.
	setupRuns = 3
	// maxWarmUp caps the untimed warm-up.
	maxWarmUp = 15 * time.Second
	// peakWindows is the number of closed-loop sub-windows whose median
	// completion rate is peak_qps: the median keeps a burst of CPU steal in
	// one sub-window from moving it.
	peakWindows = 5
	// replayReads and replayWrites size the traced run's replay sample.
	replayReads  = 16
	replayWrites = 8
	// maxLate is the generator release lateness (p99, ms) past which an
	// open-loop window is invalid: the generator fell behind its schedule.
	// Lateness below it still counts, since latency runs from the due time.
	maxLate = 20.0
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run. It returns 0 when every check passed,
// 1 when the run completed with failed or wrong requests (the summary is
// still printed), and 2 when the run could not complete (no summary).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: explore_mc, scan_analytic or cluster_rw")
	seed := fs.Uint64("seed", 1, "workload seed: the arrival schedule and request bodies derive from it")
	seconds := fs.Int("seconds", 18, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	info, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload explore_mc|scan_analytic|cluster_rw, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	b := &bench{info: info, seed: *seed, seconds: *seconds, traced: *trace == 1, out: stdout}
	sum, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// summary is the JSON last line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints metric lines and collects the summary's metrics.
type report struct {
	out     io.Writer
	keep    map[string]bool // names that go into the summary
	metrics map[string]metricValue
}

func newReport(out io.Writer, names []string) *report {
	r := &report{out: out, keep: map[string]bool{}, metrics: map[string]metricValue{}}
	for _, n := range names {
		r.keep[n] = true
	}
	return r
}

func (r *report) note(s string) { fmt.Fprintln(r.out, "# "+s) }

// metric prints one metric with its unit, sample count and source. A
// NaN value is absent on this workload: it prints why and enters the
// summary as 0.
func (r *report) metric(name, unit string, v float64, n int, how string) {
	if math.IsNaN(v) {
		fmt.Fprintf(r.out, "metric %-26s absent (%s)\n", name, how)
		v = 0
	} else {
		fmt.Fprintf(r.out, "metric %-26s %14.4f %-6s n=%-6d %s\n", name, v, unit, n, how)
	}
	if r.keep[name] {
		if math.IsInf(v, 0) {
			v = math.MaxFloat64 // a failed request's infinite latency
		}
		r.metrics[name] = metricValue{Value: v, Unit: unit}
	}
}

// bench is one run of one workload.
type bench struct {
	info    workloadInfo
	seed    uint64
	seconds int
	traced  bool
	out     io.Writer
}

func (b *bench) run() (*summary, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	work := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	names := endToEndMetrics
	if b.traced {
		names = perLayerMetrics
	}
	rep := newReport(b.out, names)
	b.record(rep, nproc)

	// Set-up: data generation, index builds, durable cold boot and
	// listener start, several times. setup_s is the median CPU time: on a
	// host whose hypervisor takes a varying share of the CPU, wall time
	// moves with that share, while CPU time moves with the work done.
	w := b.info.make()
	var setupCPU, setupWall []float64
	var dep *deployment
	for i := 0; i < setupRuns; i++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		cpu0, start := processCPU(), time.Now()
		d, err := w.deploy(filepath.Join(work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		setupCPU = append(setupCPU, (processCPU() - cpu0).Seconds())
		dep = d
	}
	defer dep.close()
	if !b.traced {
		rep.metric("setup_s", "s", median(setupCPU), len(setupCPU), "median process CPU time of a set-up, start to serving")
		rep.metric("setup_wall_s", "s", median(setupWall), len(setupWall), "median wall time of a set-up, start to serving")
	}

	client := newClient(nproc)
	defer client.CloseIdleConnections()
	lg := &loadGen{w: w, client: client, base: dep.front, conns: nproc, seed: b.seed}
	start := time.Now()
	if err := w.prepare(dep, randgen.New(randgen.SeedFrom(b.seed, 100))); err != nil {
		return nil, fmt.Errorf("preparing checks: %w", err)
	}
	rep.note(fmt.Sprintf("checks prepared in %.1f s", time.Since(start).Seconds()))

	start = time.Now()
	rates, level, err := lg.warmUp(lg.phaseGen(1, false), b.info.warmBlock, maxWarmUp)
	if err != nil {
		return nil, err
	}
	rep.note(fmt.Sprintf("warm-up (%.1f s): cache hit rate per %d-request block %s; levelled=%v",
		time.Since(start).Seconds(), b.info.warmBlock, fmtRates(rates), level))

	var total counts
	S := time.Duration(b.seconds) * time.Second
	var measured []*phase
	if !b.traced {
		closed := &phase{name: "closed"}
		cpu0 := processCPU()
		if err := lg.closedLoop(closed, lg.phaseGen(2, false), S*2/5, 0); err != nil {
			return nil, err
		}
		cpuMs := ms(processCPU() - cpu0)
		open, err := b.openPhase(lg, 3, S*3/5, false)
		if err != nil {
			return nil, err
		}
		measured = []*phase{closed, open}
		rep.metric("peak_qps", "1/s", closed.peakRate(S*2/5, peakWindows), closed.counts.Succeeded,
			fmt.Sprintf("closed loop, %d clients, %.1f s: median completion rate of %d equal sub-windows", nproc, (S*2/5).Seconds(), peakWindows))
		rep.metric("cpu_ms_per_request", "ms", cpuMs/float64(closed.counts.Succeeded), closed.counts.Succeeded,
			"process CPU time (servers and generator) per successful request, closed loop")
		b.latencies(rep, open)
	} else {
		untraced, err := b.openPhase(lg, 3, S/2, false)
		if err != nil {
			return nil, err
		}
		before, err := scrapeAll(client, dep.urls)
		if err != nil {
			return nil, err
		}
		traced, err := b.openPhase(lg, 4, S/2, true)
		if err != nil {
			return nil, err
		}
		after, err := scrapeAll(client, dep.urls)
		if err != nil {
			return nil, err
		}
		measured = []*phase{untraced, traced}
		var t tracer
		reads, writes, err := replay(&t, dep, traced, randgen.New(randgen.SeedFrom(b.seed, 200)),
			filepath.Join(work, "scratch.wal"), replayReads, replayWrites)
		if err != nil {
			return nil, err
		}
		reportLayers(rep, dep, untraced, traced, deltaOf(before, after), after, &t, reads, writes)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", b.info.name, b.seed))
		if err := t.write(path); err != nil {
			return nil, err
		}
		rep.note(fmt.Sprintf("spans of the replay written to %s", path))
	}
	for _, ph := range measured {
		total.addAll(ph.counts)
		rep.note(fmt.Sprintf("phase %-8s attempted=%d succeeded=%d failed=%d shed=%d wrong=%d elapsed=%.2fs",
			ph.name, ph.counts.Attempted, ph.counts.Succeeded, ph.counts.Failed, ph.counts.Shed, ph.counts.Wrong, ph.elapsed.Seconds()))
		for _, e := range ph.errs {
			rep.note("  error: " + e)
		}
	}

	finishErr := w.finish(dep, client, randgen.New(randgen.SeedFrom(b.seed, 300)), rep)
	if finishErr != nil {
		rep.note("final check FAILED: " + finishErr.Error())
	}
	if !b.traced {
		rep.metric("error_rate", "ratio", total.errorRate(), total.Attempted,
			"failed, shed and wrong-answer requests over requests attempted, both phases")
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		rep.metric("heap_mb", "MiB", float64(m.HeapAlloc)/(1<<20), 1, "live heap after a forced GC at the end of the run")
	}
	return &summary{
		Correct:   total.Failed == 0 && total.Shed == 0 && finishErr == nil,
		Attempted: total.Attempted,
		Failed:    total.Failed + total.Shed,
		Metrics:   rep.metrics,
	}, nil
}

// openPhase runs one open-loop window at the workload's rate.
func (b *bench) openPhase(lg *loadGen, n int, dur time.Duration, traced bool) (*phase, error) {
	name := "open"
	if traced {
		name = "traced"
	}
	ph := &phase{name: name, keep: traced}
	s, err := lg.makeSchedule(lg.phaseGen(n, traced), b.info.rate, dur)
	if err != nil {
		return nil, err
	}
	lg.openLoop(ph, s)
	_, late, _ := ph.late.quantiles()
	grew := ph.backlogGrew(lg.conns)
	fmt.Fprintf(b.out, "# %s loop: %d arrivals at %.0f/s over %.1f s; generator late p99 %.2f ms; backlog grew=%v; valid=%v\n",
		name, len(s.ops), b.info.rate, dur.Seconds(), late, grew, late <= maxLate && !grew)
	return ph, nil
}

// latencies reports the open-loop latency metrics of the untraced run.
func (b *bench) latencies(rep *report, open *phase) {
	type cls struct {
		prefix string
		d      *dist
		what   string
	}
	for _, c := range []cls{
		{"query", &open.query, "/query and /query-graph"},
		{"batch", &open.batch, "/query-batch to the done frame"},
		{"write", &open.write, "/add-matrix and /remove-matrix"},
	} {
		n := len(c.d.ms)
		if n == 0 && c.prefix != "query" {
			continue // the workload sends none
		}
		p50, tail, level := c.d.quantiles()
		rep.metric(c.prefix+"_p50_ms", "ms", p50, n, "open loop, from due time, "+c.what)
		rep.metric(c.prefix+"_p99_ms", "ms", tail, n,
			fmt.Sprintf("p%.1f: the highest percentile up to p99 with >= 10 samples beyond it", level))
	}
}

// record prints the run record: run facts and workload settings.
func (b *bench) record(rep *report, nproc int) {
	commit := "unknown (built without VCS information)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	rep.note(fmt.Sprintf("run: workload=%s seed=%d seconds=%d trace=%v commit=%s go=%s nproc=%d GOMAXPROCS=%d",
		b.info.name, b.seed, b.seconds, b.traced, commit, runtime.Version(), nproc, runtime.GOMAXPROCS(0)))
	rep.note("why: " + b.info.why)
	rep.note(fmt.Sprintf("settings: open-loop rate %.0f/s; %s", b.info.rate, b.info.settings))
	rep.note("labels: pagestore.pages_per_query counts simulated page accesses")
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid "who"
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func fmtRates(rs []float64) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%.3f", r)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
