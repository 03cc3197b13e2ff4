package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/objective"
	"sacga/internal/probspec"
	"sacga/internal/sched"
	"sacga/internal/search"
	"sacga/internal/shard"
)

// Environment of a spawned worker: where it writes its exit report, and
// whether it times requests.
const (
	envWorkerOut   = "PERFBENCH_WORKER_OUT"
	envWorkerTrace = "PERFBENCH_WORKER_TRACE"
)

type shardParams struct {
	Problem        string     `json:"problem"`
	Replicas       int        `json:"replicas"`
	Pop            int        `json:"pop"`
	Generations    int        `json:"generations"`
	MigrationEvery int        `json:"migration_every"`
	Migrants       int        `json:"migrants"`
	Procs          int        `json:"procs"`
	HVRef          [2]float64 `json:"hv_ref"`
	HVTarget       float64    `json:"hv_target"`
}

// shardStdio runs the shard-islands coordinator over an external fleet.Pool
// of fleet.ProcTransports whose workers are this binary in -shard-worker
// mode. Seed s is the run's Options.Seed.
type shardStdio struct {
	p       shardParams
	seed    int64
	scratch string
	self    string
	spec    string

	// built by setup for the next pass
	pool      *fleet.Pool
	prob      objective.Problem
	workerDir string
	setups    int

	want ga.Population // the in-process front, computed at the first check
}

// workerReport is what a worker writes when its stream closes.
type workerReport struct {
	Pid      int       `json:"pid"`
	RSSMiB   float64   `json:"rss_mib"`
	CPUs     float64   `json:"cpu_s"`
	BytesIn  int64     `json:"bytes_in"`
	BytesOut int64     `json:"bytes_out"`
	Requests int       `json:"requests"`
	Retries  int       `json:"retries"`
	BusyNs   int64     `json:"busy_ns"`
	WaitNs   int64     `json:"wait_ns"`
	Evals    evalStats `json:"evals"`
	Spans    []span    `json:"spans"`
}

type shardPassData struct {
	epochs  []time.Duration
	initDur time.Duration
	front   ga.Population
	workers []workerReport
	cpu     time.Duration
	// poolFailures sums fleet.Pool.Stats' outstanding failures at the end.
	poolFailures int
	retries      int
}

func newShardStdio(raw json.RawMessage, seed int64, scratch string) (*shardStdio, error) {
	s := &shardStdio{seed: seed, scratch: scratch}
	if err := json.Unmarshal(raw, &s.p); err != nil {
		return nil, fmt.Errorf("shard-stdio params: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s.self = self
	s.spec = probspec.Spec{Name: s.p.Problem}.Encode()
	return s, nil
}

func (s *shardStdio) options(extra any) search.Options {
	return search.Options{PopSize: s.p.Pop, Generations: s.p.Generations, Seed: s.seed, Extra: extra}
}

// setup builds the problem and the pool, and spawns and handshakes every
// worker, so the pass starts on live connections.
func (s *shardStdio) setup(traced bool) error {
	s.setups++
	s.workerDir = filepath.Join(s.scratch, fmt.Sprintf("shard-%d-%d", os.Getpid(), s.setups))
	if err := os.MkdirAll(s.workerDir, 0o755); err != nil {
		return err
	}
	prob, _, err := probspec.Spec{Name: s.p.Problem}.BuildValidated()
	if err != nil {
		return err
	}
	s.prob = prob
	env := []string{envWorkerOut + "=" + s.workerDir, envWorkerTrace + "=0"}
	if traced {
		env[1] = envWorkerTrace + "=1"
	}
	transports := make([]fleet.Transport, s.p.Procs)
	for i := range transports {
		transports[i] = &fleet.ProcTransport{Argv: []string{s.self, "-shard-worker"}, Env: env,
			Hello: fleet.HandshakeConfig{Problem: s.spec}}
	}
	s.pool = fleet.NewPool(transports...)
	sessions := make([]*fleet.Session, s.p.Procs)
	errs := make([]error, s.p.Procs)
	var wg sync.WaitGroup
	for i := range sessions {
		sessions[i] = s.pool.Acquire()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sessions[i].Link()
		}(i)
	}
	wg.Wait()
	for _, ss := range sessions {
		ss.Release()
	}
	for _, err := range errs {
		if err != nil {
			s.discard()
			return fmt.Errorf("spawn worker: %w", err)
		}
	}
	return nil
}

func (s *shardStdio) discard() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
	os.RemoveAll(s.workerDir)
}

func (s *shardStdio) pass(tr *tracer) (*passOut, error) {
	eng := new(shard.Islands)
	opts := s.options(&shard.Params{
		Replicas: s.p.Replicas, Algo: "nsga2", MigrationEvery: s.p.MigrationEvery, Migrants: s.p.Migrants,
		Spec: s.spec, Pool: s.pool,
		EpochDeadline: 5 * time.Minute, HeartbeatTimeout: 15 * time.Second,
	})
	data := &shardPassData{}
	out := &passOut{data: data}
	var stamps []time.Duration
	var fronts [][]hypervolume.Point2
	cpu0 := cpuTime()
	start := time.Now()
	runID := tr.newID()
	err := eng.Init(objective.NewCounter(s.prob), opts)
	data.initDur = time.Since(start)
	tr.add(span{Parent: runID, Op: runID, Name: "shard.init", Start: start.UnixNano(), End: start.UnixNano() + int64(data.initDur)})
	out.attempted++
	if err != nil {
		out.failed++
		out.failures = append(out.failures, fmt.Sprintf("shard init: %v", err))
	} else {
		d := search.NewDriver(eng)
		ctx := context.Background()
		for {
			t0 := time.Now()
			more, err := d.Step(ctx)
			dur := time.Since(t0)
			if !more && err == nil {
				break
			}
			data.epochs = append(data.epochs, dur)
			tr.add(span{Parent: runID, Op: runID, Name: "shard.epoch", Epoch: eng.Generation(),
				Start: t0.UnixNano(), End: t0.UnixNano() + int64(dur)})
			stamps = append(stamps, time.Since(start))
			fronts = append(fronts, feasiblePoints(eng.Population()))
			if err != nil {
				out.failed++
				out.failures = append(out.failures, fmt.Sprintf("shard epoch %d: %v", len(data.epochs), err))
				break
			}
		}
		data.front = d.Result().Front
	}
	out.wall = time.Since(start)
	tr.add(span{ID: runID, Op: runID, Name: "shard.run", Start: start.UnixNano(), End: start.UnixNano() + int64(out.wall)})
	out.evals = eng.Evals()
	eng.Close()
	for _, st := range s.pool.Stats() {
		data.poolFailures += st.Failures
	}
	s.pool.Close()
	s.pool = nil
	data.cpu = cpuTime() - cpu0

	out.attempted += s.p.Generations
	out.failed += s.p.Generations - len(data.epochs)
	out.ops = durMs(data.epochs)
	workers, err := readWorkerReports(s.workerDir)
	os.RemoveAll(s.workerDir)
	if err != nil {
		return nil, err
	}
	data.workers = workers
	// Respawns beyond the pool size, retried requests and failures the
	// pool still holds all count as retries.
	data.retries = len(workers) - s.p.Procs + data.poolFailures
	for _, w := range workers {
		out.workerRSS = max(out.workerRSS, w.RSSMiB)
		data.retries += w.Retries
		if tr != nil {
			for _, sp := range w.Spans {
				sp.Op = runID
				tr.add(sp)
			}
		}
	}
	if data.retries > 0 {
		out.failed += data.retries
		out.failures = append(out.failures, fmt.Sprintf("shard: %d worker respawns or retried requests", data.retries))
	}
	// Scored outside the timed section; a run that never reaches the
	// target is censored at its end.
	out.tthv = out.wall.Seconds()
	ref := hypervolume.Point2{X: s.p.HVRef[0], Y: s.p.HVRef[1]}
	for i, pts := range fronts {
		if hypervolume.RefPoint2D(pts, ref) >= s.p.HVTarget {
			out.tthv = stamps[i].Seconds()
			break
		}
	}
	return out, nil
}

// feasiblePoints copies the feasible individuals' objectives.
func feasiblePoints(pop ga.Population) []hypervolume.Point2 {
	pts := make([]hypervolume.Point2, 0, len(pop))
	for _, ind := range pop {
		if ind.Feasible() {
			pts = append(pts, hypervolume.Point2{X: ind.Objectives[0], Y: ind.Objectives[1]})
		}
	}
	return pts
}

// inProcess runs the same ensemble as sched.ParallelIslands in this
// process.
func (s *shardStdio) inProcess() (ga.Population, time.Duration, error) {
	eng, err := search.New(sched.NameParallelIslands)
	if err != nil {
		return nil, 0, err
	}
	opts := s.options(&sched.IslandsParams{Replicas: s.p.Replicas, Algo: "nsga2",
		MigrationEvery: s.p.MigrationEvery, Migrants: s.p.Migrants})
	start := time.Now()
	res, err := search.Run(context.Background(), eng, objective.NewCounter(s.prob), opts)
	if err != nil {
		return nil, 0, err
	}
	return res.Front, time.Since(start), nil
}

// verify: the pass's front is bit-identical to the in-process
// parallel-islands run of the same ensemble.
func (s *shardStdio) verify(p *passOut) ([]string, int) {
	if s.want == nil {
		want, _, err := s.inProcess()
		if err != nil {
			return []string{fmt.Sprintf("in-process parallel-islands: %v", err)}, 1
		}
		s.want = want
	}
	if !samePop(p.data.(*shardPassData).front, s.want) {
		return []string{"sharded front differs from the in-process parallel-islands front"}, 1
	}
	return nil, 1
}

// layers derives the shard, fleet and sched metrics from the coordinator's
// epoch spans and the workers' request spans and counters.
func (s *shardStdio) layers(tr *tracer, p *passOut) map[string]float64 {
	out := map[string]float64{}
	d := p.data.(*shardPassData)
	epochs := durMs(d.epochs)
	out["shard.epochs"] = float64(len(epochs))
	out["shard.epoch_ms_p50"] = median(epochs)
	out["shard.epoch_growth"] = growth(epochs)
	out["shard.coord_cpu_s"] = d.cpu.Seconds()

	// Slowest worker request per epoch; request Epoch k-1 serves coordinator
	// epoch k (Init requests carry epoch 0 and Init set).
	slowest := make([]time.Duration, len(d.epochs)+1)
	var reqMs []float64
	reqByEpoch := make([][]float64, len(d.epochs)+1)
	var busy, wait, in, outB int64
	requests, cpu := 0, 0.0
	var ev evalStats
	for _, w := range d.workers {
		cpu += w.CPUs
		busy += w.BusyNs
		wait += w.WaitNs
		in += w.BytesIn
		outB += w.BytesOut
		requests += w.Requests
		ev.add(w.Evals)
		for _, sp := range w.Spans {
			ms := float64(sp.dur()) / 1e6
			reqMs = append(reqMs, ms)
			e := sp.Epoch + 1
			if sp.Label == "init" {
				e = 0
			}
			if e < len(slowest) {
				slowest[e] = max(slowest[e], sp.dur())
				reqByEpoch[e] = append(reqByEpoch[e], ms)
			}
		}
	}
	var self time.Duration
	for k, e := range d.epochs {
		self += e - slowest[k+1]
	}
	self += d.initDur - slowest[0]
	out["shard.coord_self_s"] = self.Seconds()
	out["shard.requests"] = float64(requests)
	out["shard.requests_per_epoch"] = ratio(float64(requests), float64(len(d.epochs)+1))
	out["shard.request_ms_p50"] = median(reqMs)
	perEpoch := make([]float64, 0, len(d.epochs))
	for k := 1; k < len(reqByEpoch); k++ {
		perEpoch = append(perEpoch, median(reqByEpoch[k]))
	}
	out["shard.request_growth"] = growth(perEpoch)
	out["shard.worker_busy_s"] = float64(busy) / 1e9
	out["shard.worker_wait_s"] = float64(wait) / 1e9
	out["shard.worker_cpu_s"] = cpu
	out["fleet.bytes_in"] = float64(in)
	out["fleet.bytes_out"] = float64(outB)
	out["fleet.bytes_per_request"] = ratio(float64(in+outB), float64(requests))
	out["fleet.retries"] = float64(d.retries)
	if _, wall, err := s.inProcess(); err == nil {
		out["sched.islands_wall_s"] = wall.Seconds()
		out["shard.overhead_ratio"] = ratio(p.wall.Seconds(), wall.Seconds())
	}
	ev.metrics(out, ratio(float64(ev.BusyNs), float64(busy)))
	epochNs := float64(p.wall)
	out["share shard.worker_busy_s / epoch time (per worker process)"] = ratio(float64(busy)/float64(s.p.Procs), epochNs)
	out["share shard.coord_self_s / epoch time"] = ratio(float64(self), epochNs)
	out["share objective.busy_s / worker request time"] = out["objective.share"]
	return out
}

// growth is the median of the last tenth of xs over the median of the
// first tenth.
func growth(xs []float64) float64 {
	n := len(xs) / 10
	if n == 0 {
		return 0
	}
	return ratio(median(xs[len(xs)-n:]), median(xs[:n]))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readWorkerReports(dir string) ([]workerReport, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "worker-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]workerReport, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var w workerReport
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, fmt.Errorf("worker report %s: %w", path, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// countingReader and countingWriter count the bytes of the worker's frame
// stream. Reply and heartbeat writes are serialized by ServeWorker.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	n atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// runShardWorker serves the shard protocol on stdin/stdout, as cmd/sacga
// -worker does. When traced, it times each request from OnStep to
// AfterReply and counts the stream's bytes and the evaluations. At exit it
// writes its report for the coordinator.
func runShardWorker() error {
	dir := os.Getenv(envWorkerOut)
	traced := os.Getenv(envWorkerTrace) == "1"
	var rep workerReport
	var probs []*tracedProblem
	cfg := shard.WorkerConfig{Build: func(spec string) (objective.Problem, error) {
		ps, err := probspec.Decode(spec)
		if err != nil {
			return nil, err
		}
		prob, _, err := ps.BuildValidated()
		if err != nil || !traced {
			return prob, err
		}
		tp := newTracedProblem(prob, nil, 0)
		probs = append(probs, tp)
		return tp, nil
	}}
	var in io.Reader = os.Stdin
	var out io.Writer = os.Stdout
	cin, cout := &countingReader{r: os.Stdin}, &countingWriter{w: os.Stdout}
	if traced {
		in, out = cin, cout
		var cur span
		var lastEnd time.Time
		cfg.OnStep = func(si shard.StepInfo) {
			now := time.Now()
			if !lastEnd.IsZero() {
				rep.WaitNs += int64(now.Sub(lastEnd))
			}
			cur = span{Name: "shard.request", Replica: si.Replica, Epoch: si.Epoch, Start: now.UnixNano(), Proc: os.Getpid()}
			if si.Init {
				cur.Label = "init"
			}
			rep.Requests++
			if si.Attempt > 0 {
				rep.Retries++
			}
		}
		cfg.AfterReply = func(shard.StepInfo) {
			now := time.Now()
			cur.End = now.UnixNano()
			rep.BusyNs += cur.End - cur.Start
			rep.Spans = append(rep.Spans, cur)
			lastEnd = now
		}
	} else {
		cfg.OnStep = func(si shard.StepInfo) {
			rep.Requests++
			if si.Attempt > 0 {
				rep.Retries++
			}
		}
	}
	err := shard.ServeWorker(in, out, cfg)
	if dir == "" {
		return err
	}
	rep.Pid = os.Getpid()
	rep.RSSMiB = peakRSSMiB()
	rep.CPUs = cpuTime().Seconds()
	rep.BytesIn, rep.BytesOut = cin.n.Load(), cout.n.Load()
	for _, tp := range probs {
		rep.Evals.addProblem(tp)
	}
	data, jerr := json.Marshal(rep)
	if jerr == nil {
		jerr = os.WriteFile(filepath.Join(dir, "worker-"+strconv.Itoa(rep.Pid)+".json"), data, 0o644)
	}
	if err != nil {
		return err
	}
	return jerr
}
