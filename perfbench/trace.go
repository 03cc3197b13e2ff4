package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sacga/internal/objective"
	"sacga/internal/simd"
)

// span is one timed interval at a layer boundary. Spans of one op (a run,
// a job, a sharded epoch) share Op; Parent is the span that caused it.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // wall clock, Unix ns
	End     int64  `json:"end_ns"`
	Label   string `json:"label,omitempty"` // engine, phase or job kind
	N       int64  `json:"n,omitempty"`     // rows, bytes or frames
	Replica int    `json:"replica,omitempty"`
	Epoch   int    `json:"epoch,omitempty"`
	Proc    int    `json:"proc,omitempty"` // worker pid for worker spans
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written once, at the end. A nil
// *tracer records nothing, so untraced passes pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Uint64
}

func newTracer() *tracer { return &tracer{} }

// newID reserves a span ID before the span ends (children name it as their
// parent while it is open).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span; a zero ID is assigned a fresh one.
func (t *tracer) add(s span) uint64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// named returns the spans called name, in recording order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for each parent span, its duration minus the part of
// it that its children cover (overlapping children counted once).
func selfTimes(parents, children []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, c := range children {
		kids[c.Parent] = append(kids[c.Parent], c)
	}
	out := make(map[uint64]time.Duration, len(parents))
	for _, p := range parents {
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, end := int64(0), p.Start
		for _, c := range cs {
			s, e := max(c.Start, end), min(c.End, p.End)
			if e > s {
				covered += e - s
				end = e
			}
		}
		out[p.ID] = p.dur() - time.Duration(covered)
	}
	return out
}

// write stores the spans as JSON, stamped with the machine.
func (t *tracer) write(path string, m machine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Machine machine `json:"machine"`
		Spans   []span  `json:"spans"`
	}{m, t.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedProblem wraps a Problem and times every evaluation call, forwarding
// the batch and in-place fast paths exactly as objective.Counter does, so
// the engine takes the same evaluation path with or without it. Each call
// is counted; with a tracer it is also a span whose parent is the step the
// caller marked as open.
type tracedProblem struct {
	objective.Problem
	tr     *tracer
	op     uint64
	parent atomic.Uint64 // open step span; read from evaluation goroutines
	calls  atomic.Int64
	rows   atomic.Int64
	busy   atomic.Int64 // ns
}

func newTracedProblem(p objective.Problem, tr *tracer, op uint64) *tracedProblem {
	return &tracedProblem{Problem: p, tr: tr, op: op}
}

func (p *tracedProblem) record(start time.Time, rows int) {
	end := time.Now()
	p.calls.Add(1)
	p.rows.Add(int64(rows))
	p.busy.Add(int64(end.Sub(start)))
	if p.tr != nil {
		p.tr.add(span{Name: "objective.batch", Op: p.op, Parent: p.parent.Load(),
			Start: start.UnixNano(), End: start.UnixNano() + int64(end.Sub(start)), N: int64(rows)})
	}
}

func (p *tracedProblem) Evaluate(x []float64) objective.Result {
	start := time.Now()
	r := p.Problem.Evaluate(x)
	p.record(start, 1)
	return r
}

func (p *tracedProblem) EvaluateInto(x []float64, out *objective.Result) {
	start := time.Now()
	if ip, ok := p.Problem.(objective.IntoProblem); ok {
		ip.EvaluateInto(x, out)
	} else {
		*out = p.Problem.Evaluate(x)
	}
	p.record(start, 1)
}

func (p *tracedProblem) EvaluateBatch(xs [][]float64, out []objective.Result) {
	start := time.Now()
	objective.EvaluateBatch(p.Problem, xs, out)
	p.record(start, len(xs))
}

func (p *tracedProblem) Unwrap() objective.Problem { return p.Problem }

// evalStats sums the counters of several traced problems.
type evalStats struct{ Calls, Rows, BusyNs int64 }

func (e *evalStats) addProblem(p *tracedProblem) {
	e.add(evalStats{p.calls.Load(), p.rows.Load(), p.busy.Load()})
}

func (e *evalStats) add(o evalStats) {
	e.Calls += o.Calls
	e.Rows += o.Rows
	e.BusyNs += o.BusyNs
}

// metrics fills the objective layer's metrics; share is the
// evaluation time's share of its parent, computed by the caller.
func (e evalStats) metrics(out map[string]float64, share float64) {
	out["objective.evals"] = float64(e.Rows)
	out["objective.busy_s"] = float64(e.BusyNs) / 1e9
	out["objective.ns_per_eval"] = ratio(float64(e.BusyNs), float64(e.Rows))
	out["objective.rows_per_batch"] = ratio(float64(e.Rows), float64(e.Calls))
	out["objective.share"] = share
}

// layerMetrics lists every per-layer metric with its unit, in report order;
// BENCHMARK.json's per_layer list names the same metrics.
var layerMetrics = []struct{ name, unit, parent string }{
	{"objective.evals", "count", ""},
	{"objective.busy_s", "s", ""},
	{"objective.ns_per_eval", "ns", ""},
	{"objective.rows_per_batch", "count", ""},
	{"objective.share", "ratio", "share of its parent: step time (fig5), slot time (serve-mixed), worker request time (shard-stdio)"},
	{"search.steps", "count", ""},
	{"search.step_self_ms_p50", "ms", ""},
	{"search.self_share", "ratio", "share of search step time"},
	{"nsga2.step_self_ms_p50", "ms", ""},
	{"sacga.phase1_step_self_ms_p50", "ms", ""},
	{"sacga.phase2_step_self_ms_p50", "ms", ""},
	{"serve.submit_ms_p50", "ms", ""},
	{"serve.submit_ms_p99", "ms", ""},
	{"serve.queue_wait_ms_p50", "ms", ""},
	{"serve.run_ms_p50", "ms", ""},
	{"serve.frame_gap_ms_p50", "ms", ""},
	{"serve.frames_per_gen", "ratio", ""},
	{"serve.dedup_ratio", "ratio", "share of submits"},
	{"serve.eval_share", "ratio", "share of slot time (wall_s x slots)"},
	{"serve.state_bytes_per_job", "B", ""},
	{"serve.state_files", "count", ""},
	{"serve.drain_s", "s", ""},
	{"shard.epochs", "count", ""},
	{"shard.epoch_ms_p50", "ms", ""},
	{"shard.epoch_growth", "ratio", "last tenth of epochs / first tenth"},
	{"shard.coord_cpu_s", "s", ""},
	{"shard.coord_self_s", "s", "epoch time minus its slowest worker request"},
	{"shard.requests", "count", ""},
	{"shard.requests_per_epoch", "ratio", ""},
	{"shard.request_ms_p50", "ms", ""},
	{"shard.request_growth", "ratio", "last tenth of epochs / first tenth"},
	{"shard.worker_busy_s", "s", ""},
	{"shard.worker_wait_s", "s", ""},
	{"shard.worker_cpu_s", "s", ""},
	{"fleet.bytes_in", "B", ""},
	{"fleet.bytes_out", "B", ""},
	{"fleet.bytes_per_request", "B", ""},
	{"fleet.retries", "count", ""},
	{"sched.islands_wall_s", "s", ""},
	{"shard.overhead_ratio", "ratio", "sharded wall / in-process parallel-islands wall"},
	{"trace.overhead_ratio", "ratio", "traced wall_s / untraced wall_s"},
	{"quality.time_to_hv_s", "s", "untraced passes: time until the front first reaches the workload's target hypervolume"},
}

// printLayers prints every per-layer metric with its unit and, for shares,
// the parent it is a share of.
func printLayers(ms map[string]metric) {
	for _, spec := range layerMetrics {
		note := spec.parent
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Printf("layer    %-30s %14.6f %s%s\n", spec.name, ms[spec.name].Value, spec.unit, note)
	}
}

// machine stamps every output with where it was measured.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernels    string `json:"kernels"` // "avx2" or "purego"
}

func stampMachine() machine {
	m := machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernels: "purego"}
	if simd.Enabled {
		m.Kernels = "avx2"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s kernels=%s", m.NumCPU, m.GOMAXPROCS, m.CPU, m.Go, m.Kernels)
}
