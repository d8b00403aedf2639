// Command cwcbench is the CWC benchmark. It drives the real server.Master
// and a fleet of real worker.Phones over loopback TCP (cluster.Start)
// with seeded job batches in a closed loop, checks every aggregated
// result byte for byte against a single-threaded reference, and prints
// the end-to-end metrics (untraced run, -trace 0) or the per-layer
// metrics (traced run, -trace 1). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash cwcbench/run.sh --workload small-durable --seed 1 --seconds 30 --trace 0
//	bash cwcbench/run.sh --workload all
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"cwc/internal/core"
	"cwc/internal/device"
	"cwc/internal/server"
	"cwc/internal/tasks"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, each a median over the run's
// timed batches or jobs except setup_s (median over the run's deployments).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"makespan_s", "s"},
	{"throughput_mb_s", "MB/s"},
	{"job_p50_ms", "ms"},
	{"cpu_ms_per_mb", "ms/MB"},
	{"alloc_b_per_b", "B/B"},
}

// perLayer are the traced run's metrics. A metric a workload does not
// exercise (the WAL on fig12a-mix, the LP bound off fig12a-mix) reads 0.
// The job tail and the Submit ack latencies come from the traced run's
// untraced half: on a 2-core host their run-to-run spread is wider than
// any bound an end-to-end metric may carry, so they are reported here,
// unbounded.
var perLayer = []metricDef{
	{"job_p99_ms", "ms"},
	{"submit_p50_us", "us"},
	{"submit_p99_us", "us"},
	{"server.round_overhead_ms", "ms"},
	{"server.round_wall_ms", "ms"},
	{"server.rounds_per_batch", "count"},
	{"server.requeued", "count"},
	{"server.stragglers", "count"},
	{"server.span_imbalance", "ratio"},
	{"server.nonexec_ms_per_partition", "ms"},
	{"server.pred_over_actual", "ratio"},
	{"server.unexplained_frac", "frac"},
	{"core.greedy_ms", "ms"},
	{"core.greedy_over_lp", "ratio"},
	{"wal.fsync_us_p50", "us"},
	{"wal.fsync_us_p99", "us"},
	{"wal.fsyncs_per_job", "count"},
	{"wal.write_us_p50", "us"},
	{"wal.bytes_per_input_b", "B/B"},
	{"protocol.wire_b_per_input_b", "B/B"},
	{"protocol.send_ns_per_kb", "ns/KB"},
	{"protocol.recv_ns_per_kb", "ns/KB"},
	{"protocol.alloc_b_per_payload_b", "B/B"},
	{"worker.exec_ms_per_mb", "ms/MB"},
	{"worker.busy_frac", "frac"},
	{"tasks.process_mb_s", "MB/s"},
	{"tasks.aggregate_us_per_job", "us"},
	{"tasks.digest_ns_per_kb", "ns/KB"},
	{"trace_overhead_frac", "frac"},
}

const (
	// runLimit keeps one invocation under the 180 s a run may take.
	runLimit = 170 * time.Second
	// masterChunkKB is server.Config.ChunkKB's default: the most input one
	// assign frame carries.
	masterChunkKB = 4096
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	dir     string // WAL segments and span files go here
	commit  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cwcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig12a-mix, bulk-durable, small-durable, or all (each untraced, then traced)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	var o options
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "seconds of batches to measure (a traced run splits them between its untraced and traced halves)")
	fs.StringVar(&o.dir, "dir", ".bench_build", "directory for WAL segments and span files")
	fs.StringVar(&o.commit, "commit", "unknown", "commit being measured, for the environment stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "cwcbench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "cwcbench: -seconds must be positive")
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "cwcbench: %v\n", err)
			return 2
		}
		ws = []*workload{w}
	}
	modes := []bool{*trace == 1}
	if *name == "all" {
		modes = []bool{false, true}
	}

	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		for _, traced := range modes {
			res, err := runOne(w, traced, o, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "cwcbench: %s: %v\n", w.name, err)
				return 1
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, v := range res.Metrics {
				if len(ws) > 1 {
					k = w.name + "." + k
				}
				total.Metrics[k] = v
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "cwcbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload untraced or traced and prints its metrics.
func runOne(w *workload, traced bool, o options, out io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	runDir := filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	env, err := stampEnv(runDir, o.commit)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "env: nproc=%d gomaxprocs=%d go=%s commit=%s wal_fs=%s fsync_probe_us=%.1f cpu_probe_ms=%.2f\n",
		env.nproc, env.gomaxprocs, env.goVersion, env.commit, env.walFS, env.fsyncProbeUs, env.cpuProbeMs)
	if w.durable && env.memoryFS {
		return nil, errTmpfs
	}
	pool, err := makePool(w, o.seed)
	if err != nil {
		return nil, err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s (%s, seed %d): %s\n", w.name, mode, o.seed, w.why)

	if traced {
		return runTraced(ctx, w, pool, o, runDir, out)
	}
	return runUntraced(ctx, w, pool, o, runDir, out)
}

// window is one timed stretch of batches on one deployment.
type window struct {
	lp         *loop
	start, end time.Time
	cpu        time.Duration // process CPU, user + system
	alloc      uint64        // Go heap bytes allocated
	failed     int
	inputBytes int64
}

// timed runs batches on d for seconds and checks every result.
func timed(ctx context.Context, w *workload, d *deployment, pool [][]*jobSpec, seconds float64) (*window, error) {
	lp := newLoop(w, d, pool)
	win := &window{lp: lp}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	win.start = time.Now()
	err := lp.drive(ctx, win.start.Add(time.Duration(seconds*float64(time.Second))), math.MaxInt)
	win.end = time.Now()
	win.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	win.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		return nil, err
	}
	win.failed = lp.check()
	for _, b := range lp.batches {
		win.inputBytes += b.bytes
	}
	return win, nil
}

// latencies returns every successful job's submit-to-result latency (ms)
// and Submit ack latency (µs).
func (win *window) latencies() (jobMs, submitUs []float64) {
	for _, j := range win.lp.all {
		if j.err == "" {
			jobMs = append(jobMs, ms(j.done.Sub(j.submit)))
			submitUs = append(submitUs, us(j.ack.Sub(j.submit)))
		}
	}
	return jobMs, submitUs
}

func (win *window) makespans() []float64 {
	var out []float64
	for _, b := range win.lp.batches {
		out = append(out, b.makespan().Seconds())
	}
	return out
}

// runUntraced sets up several deployments one after another and runs an
// equal share of the measured seconds on each, pooling their batches: a
// deployment's bandwidth probes and profiles steer all of its rounds, so
// one deployment alone would make the whole run depend on them.
func runUntraced(ctx context.Context, w *workload, pool [][]*jobSpec, o options, runDir string, out io.Writer) (*result, error) {
	n := w.deployments
	var setups, makespans, jobMs, submitUs, thru []float64
	var cpu time.Duration
	var alloc uint64
	var inputBytes int64
	attempted, failed := 0, 0
	for i := 0; i < n; i++ {
		d, took, err := deploy(ctx, w, walDirFor(runDir, i), pool[0], nil)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		setups = append(setups, took.Seconds())
		win, err := timed(ctx, w, d, pool, o.seconds/float64(n))
		d.stop()
		if err != nil {
			return nil, err
		}
		report(out, win)
		jm, su := win.latencies()
		jobMs, submitUs = append(jobMs, jm...), append(submitUs, su...)
		prev := win.start
		for _, b := range win.lp.batches {
			if gap := b.end.Sub(prev); gap > 0 {
				thru = append(thru, float64(b.bytes)/1e6/gap.Seconds())
			}
			prev = b.end
		}
		makespans = append(makespans, win.makespans()...)
		cpu += win.cpu
		alloc += win.alloc
		inputBytes += win.inputBytes
		attempted += len(win.lp.all)
		failed += win.failed
	}
	vals := map[string]float64{
		"setup_s":         median(setups),
		"makespan_s":      median(makespans),
		"throughput_mb_s": median(thru),
		"job_p50_ms":      quantile(jobMs, 0.5),
		"cpu_ms_per_mb":   ms(cpu) / (float64(inputBytes) / 1e6),
		"alloc_b_per_b":   float64(alloc) / float64(inputBytes),
	}
	counts := map[string]int{
		"setup_s": len(setups), "makespan_s": len(makespans), "throughput_mb_s": len(thru),
		"job_p50_ms": len(jobMs),
	}
	fmt.Fprintf(out, "  set-ups (s):")
	for _, v := range setups {
		fmt.Fprintf(out, " %.3f", v)
	}
	fmt.Fprintln(out)
	for _, u := range []struct {
		name, unit string
		xs         []float64
		q          float64
	}{{"job_p99_ms", "ms", jobMs, 0.99}, {"submit_p50_us", "us", submitUs, 0.5}, {"submit_p99_us", "us", submitUs, 0.99}} {
		fmt.Fprintf(out, "  %-34s %12.4f %-6s (n=%d; unbounded, see the traced run)\n", u.name, quantile(u.xs, u.q), u.unit, len(u.xs))
	}
	fmt.Fprintf(out, "  %-34s %12.4f %-6s (%d failed of %d jobs)\n", "fail_frac", float64(failed)/float64(attempted), "frac", failed, attempted)
	return finish(out, endToEnd, vals, counts, attempted, failed)
}

// report prints what a window did and any failures.
func report(out io.Writer, win *window) {
	fmt.Fprintf(out, "  window %.2fs: %d batches, %d jobs, %.1f MB, %d rounds\n",
		win.end.Sub(win.start).Seconds(), len(win.lp.batches), len(win.lp.all), float64(win.inputBytes)/1e6, len(win.lp.rounds))
	fmt.Fprintf(out, "  batch makespans (s):")
	for _, m := range win.makespans() {
		fmt.Fprintf(out, " %.3f", m)
	}
	fmt.Fprintln(out)
	for i, f := range win.lp.failures {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more failures\n", len(win.lp.failures)-i)
			break
		}
		fmt.Fprintf(out, "  FAIL %s\n", f)
	}
}

// finish prints defs' values with units (and sample counts where given)
// and builds the result.
func finish(out io.Writer, defs []metricDef, vals map[string]float64, counts map[string]int, attempted, failed int) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		n := ""
		if c, ok := counts[m.name]; ok {
			n = fmt.Sprintf("(n=%d)", c)
		}
		fmt.Fprintf(out, "  %-34s %12.4f %-6s %s\n", m.name, v, m.unit, n)
	}
	if attempted < 1 {
		return nil, errors.New("no jobs attempted")
	}
	return res, nil
}

func runTraced(ctx context.Context, w *workload, pool [][]*jobSpec, o options, runDir string, out io.Writer) (*result, error) {
	half := o.seconds / 2

	// Untraced half: the baseline for trace_overhead_frac.
	d0, _, err := deploy(ctx, w, walDirFor(runDir, 0), pool[0], nil)
	if err != nil {
		return nil, fmt.Errorf("untraced setup: %w", err)
	}
	base, err := timed(ctx, w, d0, pool, half)
	d0.stop()
	if err != nil {
		return nil, err
	}
	report(out, base)

	tr := newTracer()
	d, _, err := deploy(ctx, w, walDirFor(runDir, 1), pool[0], tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	tr.reset()
	wire0 := tr.wire.Load()
	win, err := timed(ctx, w, d, pool, half)
	if err != nil {
		d.stop()
		return nil, err
	}
	wire := tr.wire.Load() - wire0
	phones := d.c.Master.Phones()
	rounds, fsyncs := tr.reg.Histogram("cwc_round_wall_ms").Count(), tr.reg.Histogram("cwc_wal_fsync_ms").Count()
	driven := int64(d.warmRounds + len(win.lp.rounds))
	tr.mu.Lock()
	syncs := tr.syncsTotal
	tr.mu.Unlock()
	substrate := fmt.Sprintf("cwc_round_wall_ms count %d vs %d rounds driven (%s); cwc_wal_fsync_ms count %d vs %d hook syncs (%s)",
		rounds, driven, agree(rounds == driven), fsyncs, syncs, agree(fsyncs == syncs))
	d.stop()
	report(out, win)
	fmt.Fprintf(out, "  substrate: %s\n", substrate)

	vals, err := layerMetrics(out, w, win, tr, phones, wire)
	if err != nil {
		return nil, err
	}
	vals["trace_overhead_frac"] = median(win.makespans())/median(base.makespans()) - 1
	jobMs, submitUs := base.latencies()
	vals["job_p99_ms"] = quantile(jobMs, 0.99)
	vals["submit_p50_us"], vals["submit_p99_us"] = quantile(submitUs, 0.5), quantile(submitUs, 0.99)

	spans := tr.link(win.lp)
	total, self := selfTimes(spans)
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  span %-10s total %10.1f ms  self %10.1f ms\n", n, ms(total[n]), ms(self[n]))
	}
	path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "  spans: %d written to %s\n", len(spans), path)
	if u := vals["server.unexplained_frac"]; u > 0.10 {
		fmt.Fprintf(out, "  FLAG server.unexplained_frac %.3f exceeds 0.10 of the batch makespan\n", u)
	}
	counts := map[string]int{"job_p99_ms": len(jobMs), "submit_p50_us": len(submitUs), "submit_p99_us": len(submitUs),
		"server.round_overhead_ms": len(win.lp.rounds), "server.round_wall_ms": len(win.lp.rounds)}
	return finish(out, perLayer, vals, counts, len(base.lp.all)+len(win.lp.all), base.failed+win.failed)
}

// layerMetrics derives the per-layer metrics from a traced window.
func layerMetrics(out io.Writer, w *workload, win *window, tr *tracer, phones []server.PhoneInfo, wire int64) (map[string]float64, error) {
	lp := win.lp
	in := float64(win.inputBytes)
	v := map[string]float64{}
	var over, wall, imbalance, nonexec, pred []float64
	requeued, stragglers := 0, 0
	execMs := 0.0
	parts := map[int]int{} // job ID -> partitions dispatched
	var assignKB []float64
	for _, r := range lp.rounds {
		over = append(over, ms(r.overhead()))
		wall = append(wall, ms(r.rep.Wall))
		for _, e := range r.rep.Events {
			// RoundReport.Requeued counts the whole pending queue, which
			// under pipelining holds the next batch's fresh submissions.
			if e.Kind == "requeue" {
				requeued++
			}
		}
		stragglers += len(r.rep.Stragglers)
		execMs += r.execMs
		if r.rep.Wall > 0 {
			pred = append(pred, r.rep.PredictedMakespanMs/ms(r.rep.Wall))
		}
		if r.sched == nil {
			continue
		}
		maxSpan, sumSpan, busy := 0.0, 0.0, 0
		actual, n := 0.0, 0
		for _, p := range r.sched.Phones {
			if len(p.Assignments) == 0 {
				continue
			}
			busy++
			sumSpan += p.ActualSpanMs
			maxSpan = math.Max(maxSpan, p.ActualSpanMs)
			for _, a := range p.Assignments {
				if a.ActualMs > 0 {
					actual += a.ActualMs
				}
				n++
				parts[a.JobID]++
				assignKB = append(assignKB, a.SizeKB)
			}
		}
		if sumSpan > 0 {
			imbalance = append(imbalance, maxSpan*float64(busy)/sumSpan)
		}
		if n > 0 {
			nonexec = append(nonexec, (actual-r.execMs)/float64(n))
		}
	}
	v["server.round_overhead_ms"] = median(over)
	v["server.round_wall_ms"] = median(wall)
	v["server.rounds_per_batch"] = float64(len(lp.rounds)) / float64(len(lp.batches))
	v["server.requeued"] = float64(requeued)
	v["server.stragglers"] = float64(stragglers)
	v["server.span_imbalance"] = median(imbalance)
	v["server.nonexec_ms_per_partition"] = median(nonexec)
	v["server.pred_over_actual"] = median(pred)
	v["server.unexplained_frac"] = median(unexplained(lp))
	v["worker.exec_ms_per_mb"] = execMs / (in / 1e6)
	v["worker.busy_frac"] = execMs / (float64(len(phones)) * ms(win.end.Sub(win.start)))
	v["protocol.wire_b_per_input_b"] = float64(wire) / in

	tr.mu.Lock()
	writes, syncs, walBytes := tr.walWrites, tr.walSyncs, tr.walBytes
	tr.mu.Unlock()
	v["wal.fsync_us_p50"], v["wal.fsync_us_p99"], v["wal.write_us_p50"] = 0, 0, 0
	if len(syncs) > 0 {
		v["wal.fsync_us_p50"] = quantile(durUs(syncs), 0.5)
		v["wal.fsync_us_p99"] = quantile(durUs(syncs), 0.99)
	}
	if len(writes) > 0 {
		v["wal.write_us_p50"] = quantile(durUs(writes), 0.5)
	}
	v["wal.fsyncs_per_job"] = float64(len(syncs)) / float64(len(lp.all))
	v["wal.bytes_per_input_b"] = float64(walBytes) / in

	byID := map[int]*jobRec{}
	for _, j := range lp.all {
		byID[j.id] = j
	}
	// Partitions per job spec, averaged over the timed jobs that ran it.
	specParts := map[*jobSpec][2]int{}
	for _, j := range lp.all {
		sp := specParts[j.spec]
		specParts[j.spec] = [2]int{sp[0] + parts[j.id], sp[1] + 1}
	}
	tl, err := measureTasks(lp.pool[0], func(js *jobSpec) int {
		sp := specParts[js]
		if sp[1] == 0 {
			return 1
		}
		return (sp[0] + sp[1]/2) / sp[1]
	})
	if err != nil {
		return nil, err
	}
	v["tasks.process_mb_s"] = tl.processMBs
	v["tasks.aggregate_us_per_job"] = tl.aggregateUs
	v["tasks.digest_ns_per_kb"] = tl.digestNsPerKB
	taskNames := make([]string, 0, len(tl.msPerKB))
	for name := range tl.msPerKB {
		taskNames = append(taskNames, name)
	}
	sort.Strings(taskNames)
	for _, name := range taskNames {
		fmt.Fprintf(out, "  tasks.process %-10s %10.2f MB/s\n", name, 1024/tl.msPerKB[name]/1e3)
	}

	if len(assignKB) > 256 {
		assignKB = assignKB[:256]
	}
	var input []byte
	for _, js := range lp.pool[0] {
		if len(js.input) > len(input) {
			input = js.input
		}
	}
	results := tl.results
	if len(results) > 256 {
		results = results[:256]
	}
	codec, err := measureCodec(assignKB, input, results, masterChunkKB)
	if err != nil {
		return nil, err
	}
	v["protocol.send_ns_per_kb"] = codec.sendNsPerKB
	v["protocol.recv_ns_per_kb"] = codec.recvNsPerKB
	v["protocol.alloc_b_per_payload_b"] = codec.allocPerPayloadB

	specs := map[string]device.Spec{}
	for _, p := range w.phones {
		specs[p.Spec.Model] = p.Spec
	}
	var insts []*core.Instance
	for _, r := range lp.rounds {
		if r.sched != nil && len(r.sched.Phones) > 0 {
			insts = append(insts, rebuildInstance(phones, specs, r.sched, byID, tl.msPerKB, w.delayPerKB))
		}
	}
	if len(insts) == 0 {
		return nil, errors.New("no traced round to rebuild a scheduling instance from")
	}
	if v["core.greedy_ms"], err = measureGreedy(insts); err != nil {
		return nil, err
	}
	v["core.greedy_over_lp"] = 0
	if w.lpBound {
		if v["core.greedy_over_lp"], err = greedyOverLP(insts[0]); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func agree(ok bool) string {
	if ok {
		return "agree"
	}
	return "DISAGREE"
}

func durUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// errTmpfs refuses a WAL directory whose fsync costs nothing.
var errTmpfs = errors.New("WAL directory is on tmpfs/ramfs: fsync is free there and the durable workloads would measure nothing")

// envStamp is what the measurement ran on.
type envStamp struct {
	nproc, gomaxprocs int
	goVersion, commit string
	walFS             string
	memoryFS          bool // tmpfs or ramfs: fsync is free
	fsyncProbeUs      float64
	// cpuProbeMs is the median of 5 single-threaded primecount runs over
	// the same 256 KB: how fast this host's CPU was during the run.
	cpuProbeMs float64
}

// Filesystem magic numbers from statfs(2).
var fsNames = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x794C7630: "overlay",
	0x01021994: "tmpfs", 0x858458F6: "ramfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
}

func stampEnv(dir, commit string) (*envStamp, error) {
	e := &envStamp{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version(), commit: commit}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return nil, fmt.Errorf("statfs %s: %w", dir, err)
	}
	typ := int64(st.Type)
	e.walFS = fsNames[typ]
	if e.walFS == "" {
		e.walFS = fmt.Sprintf("0x%x", typ)
	}
	e.memoryFS = e.walFS == "tmpfs" || e.walFS == "ramfs"
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := []byte(strings.Repeat("x", 4096))
	var probes []float64
	for i := 0; i < 21; i++ {
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return nil, err
		}
		probes = append(probes, us(time.Since(start)))
	}
	e.fsyncProbeUs = median(probes)

	input := tasks.GenIntegers(256, primeMax, rand.New(rand.NewSource(1)))
	probes = probes[:0]
	for i := 0; i < 5; i++ {
		var ck tasks.Checkpoint
		start := time.Now()
		if _, err := (tasks.PrimeCount{}).Process(context.Background(), input, &ck); err != nil {
			return nil, err
		}
		probes = append(probes, ms(time.Since(start)))
	}
	e.cpuProbeMs = median(probes)
	return e, nil
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
