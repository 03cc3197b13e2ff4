// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed measuring time, checks the program's outputs outside
// the timed sections, and prints its metrics: human-readable lines first,
// then one JSON object as the last line of standard output.
//
//	bash perfbench/run.sh --workload fig5 --seed 1 --seconds 30 --trace 0
//
// Workloads (parameters in workloads.json):
//
//	fig5         the paper's fig. 5 experiment driven step by step
//	serve-mixed  a closed loop of HTTP tenants against the job server
//	shard-stdio  shard-islands over two stdio worker processes
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes and reports the per-layer metrics
// computed from spans recorded around calls into each layer's public API.
// A layer a workload does not exercise reports 0.
//
// The binary is also its own shard worker: -shard-worker serves the shard
// protocol on stdin/stdout (spawned by the shard-stdio coordinator).
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// minSetupReps is how many setup samples a run takes at least; setup_s is
// their median.
const minSetupReps = 5

// Set-ups shorter than a few milliseconds are repeated, up to maxSetupReps,
// until they add up to minSetupTotal seconds.
const (
	maxSetupReps  = 1001
	minSetupTotal = 0.2
)

// bench is one workload. The harness calls setup (timed: one setup_s
// sample; traced tells it whether the next pass is traced), then either
// pass, which runs the workload's fixed work on what setup built and
// releases it, or discard, which releases it unused.
type bench interface {
	setup(traced bool) error
	discard()
	pass(tr *tracer) (*passOut, error)
	// verify checks one pass's outputs, outside the measured time, and
	// returns one message per failed check plus the number of checks made.
	verify(p *passOut) (failures []string, checks int)
	// layers computes the per-layer metrics of one traced pass.
	layers(tr *tracer, p *passOut) map[string]float64
}

// passOut is what one pass of fixed work measured.
type passOut struct {
	wall      time.Duration
	evals     int64
	ops       []float64 // unit-operation latencies, ms
	attempted int
	failed    int
	failures  []string
	tthv      float64 // time to the target front quality, s
	workerRSS float64 // largest worker's peak RSS, MiB (shard-stdio)
	data      any     // workload-specific outputs for verify and layers
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name: fig5, serve-mixed or shard-stdio")
		seed      = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 30, "measuring time in seconds (at least one pass always runs)")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		shardWork = flag.Bool("shard-worker", false, "serve the shard protocol on stdin/stdout (spawned by shard-stdio)")
	)
	flag.Parse()
	if *shardWork {
		if err := runShardWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload from the checkout root, the working directory;
// scratch files go under .bench_build/perfbench.
func run(name string, seed int64, seconds int, traced bool) error {
	var params map[string]json.RawMessage
	if err := json.Unmarshal(workloadsJSON, &params); err != nil {
		return fmt.Errorf("workloads.json: %w", err)
	}
	raw, ok := params[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "perfbench"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	var b bench
	switch name {
	case "fig5":
		b, err = newFig5(raw, seed)
	case "serve-mixed":
		b, err = newServeMixed(raw, seed, scratch)
	case "shard-stdio":
		b, err = newShardStdio(raw, seed, scratch)
	default:
		err = fmt.Errorf("workload %q has no runner", name)
	}
	if err != nil {
		return err
	}

	m := stampMachine()
	fmt.Printf("workload %s  seed %d  seconds %d  trace %v\n", name, seed, seconds, traced)
	fmt.Printf("machine  %s\n", m)

	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var setups []float64
	timedSetup := func(traced bool) error {
		t0 := time.Now()
		err := b.setup(traced)
		setups = append(setups, time.Since(t0).Seconds())
		return err
	}
	var plain, tracedPasses []*passOut
	var lastTracer *tracer
	perLayer := map[string][]float64{}
	attempted, failed, checks, checkFailed := 0, 0, 0, 0
	measured := time.Duration(0) // set-ups and passes; checks are not counted
	for len(plain) == 0 || (traced && len(tracedPasses) == 0) || measured < budget {
		var tr *tracer
		if traced && len(tracedPasses) < len(plain) {
			tr = newTracer()
		}
		t0 := time.Now()
		if err := timedSetup(tr != nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		p, err := b.pass(tr)
		if err != nil {
			return fmt.Errorf("pass: %w", err)
		}
		measured += time.Since(t0)

		attempted += p.attempted
		failed += p.failed
		for _, f := range p.failures {
			fmt.Println("FAILED op:", f)
		}
		fails, n := b.verify(p)
		for _, f := range fails {
			fmt.Println("FAILED check:", f)
		}
		checks += n
		checkFailed += len(fails)
		if tr != nil {
			for k, v := range b.layers(tr, p) {
				perLayer[k] = append(perLayer[k], v)
			}
			tracedPasses = append(tracedPasses, p)
			lastTracer = tr
		} else {
			plain = append(plain, p)
		}
		p.data = nil
	}
	// Tiny set-ups are repeated until their median is steady.
	for len(setups) < minSetupReps || (len(setups) < maxSetupReps && sum(setups) < minSetupTotal) {
		if err := timedSetup(false); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.discard()
	}
	rss := peakRSSMiB()
	attempted += checks
	failed += checkFailed
	correct := failed == 0
	fmt.Printf("checks   %d made, %d failed\n", checks, checkFailed)

	metrics := map[string]metric{}
	if !traced {
		e2e := endToEnd(plain, setups, rss, attempted, failed)
		for _, k := range sortedKeys(e2e) {
			metrics[k] = e2e[k]
		}
	} else {
		perLayer["trace.overhead_ratio"] = []float64{
			median(walls(tracedPasses)) / median(walls(plain)),
		}
		for _, p := range plain {
			perLayer["quality.time_to_hv_s"] = append(perLayer["quality.time_to_hv_s"], p.tthv)
		}
		for _, spec := range layerMetrics {
			metrics[spec.name] = metric{Value: median(perLayer[spec.name]), Unit: spec.unit}
		}
		printLayers(metrics)
		for _, k := range sortedKeys(perLayer) {
			if k, ok := strings.CutPrefix(k, "share "); ok {
				fmt.Printf("share    %-60s %10.4f\n", k, median(perLayer["share "+k]))
			}
		}
		path := filepath.Join(scratch, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := lastTracer.write(path, m); err != nil {
			return err
		}
		fmt.Printf("spans    %s (last traced pass)\n", path)
	}
	fmt.Printf("passes   %d untraced, %d traced in %.1f s\n", len(plain), len(tracedPasses), time.Since(start).Seconds())

	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd reduces the untraced passes to the end-to-end metrics and prints
// them with their units and sample counts.
func endToEnd(passes []*passOut, setups []float64, rss float64, attempted, failed int) map[string]metric {
	// Latencies are pooled over the passes; a failed op counts as infinite
	// latency. The tail percentile is chosen from one pass's op count, so
	// it does not move with the number of passes that fit in a run.
	var ops, rates, tthv []float64
	workerRSS := 0.0
	for _, p := range passes {
		ops = append(ops, p.ops...)
		for i := 0; i < p.failed; i++ {
			ops = append(ops, math.Inf(1))
		}
		rates = append(rates, float64(p.evals)/p.wall.Seconds())
		tthv = append(tthv, p.tthv)
		workerRSS = math.Max(workerRSS, p.workerRSS)
	}
	sort.Float64s(ops)
	tailPct := tailPercentile(len(ops) / len(passes))
	out := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {median(walls(passes)), "s"},
		"evals_per_s": {median(rates), "1/s"},
		"op_p50_ms":   {finite(quantile(ops, 0.5)), "ms"},
		"op_tail_ms":  {finite(quantile(ops, tailPct/100)), "ms"},
		"peak_rss_mb": {rss + workerRSS, "MiB"},
	}
	for _, k := range sortedKeys(out) {
		fmt.Printf("metric   %-13s %14.6f %s\n", k, out[k].Value, out[k].Unit)
	}
	fmt.Printf("         op_tail_ms is p%g of %d ops from %d passes; wall_s and evals_per_s are medians over the passes; setup_s is the median of %d set-ups\n",
		tailPct, len(ops), len(passes), len(setups))
	if workerRSS > 0 {
		fmt.Printf("         peak_rss_mb = benchmark process %.1f MiB + largest worker %.1f MiB\n", rss, workerRSS)
	}
	fmt.Printf("metric   %-13s %14.6f ratio (%d failed of %d attempted)\n", "fail_frac", float64(failed)/float64(attempted), failed, attempted)
	fmt.Printf("metric   %-13s %14.6f s (median of %d passes; unbounded, see quality.time_to_hv_s)\n", "time_to_hv_s", median(tthv), len(passes))
	return out
}

// finite caps an infinite latency (failed ops) at the largest float, which
// JSON can carry.
func finite(x float64) float64 { return math.Min(x, math.MaxFloat64) }

// tailPercentile is the highest of the usual percentiles that leaves at
// least ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 98, 99, 99.5, 99.9} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// quantile reads the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func walls(passes []*passOut) []float64 {
	w := make([]float64, len(passes))
	for i, p := range passes {
		w[i] = p.wall.Seconds()
	}
	return w
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ratio is a/b, or 0 when b is 0 (a layer the pass did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durMs converts durations to milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// peakRSSMiB reads this process's peak resident set size.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), &kb)
			return kb / 1024
		}
	}
	return 0
}
