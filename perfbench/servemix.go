package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/probspec"
	"sacga/internal/search"
	"sacga/internal/serve"
)

// jobKind is one entry of the serve-mixed tenant mix.
type jobKind struct {
	Name    string          `json:"name"`
	Count   int             `json:"count"`
	Problem string          `json:"problem"`
	Engine  string          `json:"engine"`
	Params  json.RawMessage `json:"params,omitempty"`
	// Grades, when set, draws the integrator grade uniformly from
	// [Grades[0], Grades[1]].
	Grades []int `json:"grades,omitempty"`
	Pop    int   `json:"pop"`
	// Generations are drawn uniformly from [GenMin, GenMax].
	GenMin int `json:"gen_min"`
	GenMax int `json:"gen_max"`
}

type serveParams struct {
	Kinds []jobKind `json:"kinds"`
	// Resubmits exact copies of earlier jobs are spread through the mix;
	// each names a job at least ResubmitLag positions before it.
	Resubmits   int `json:"resubmits"`
	ResubmitLag int `json:"resubmit_lag"`
	// SoloSample checks every SoloSample-th original job's front against a
	// solo search run.
	SoloSample int `json:"solo_sample"`
	// CheckpointEvery is serve.Config.CheckpointEvery.
	CheckpointEvery int `json:"checkpoint_every"`
	// HVTarget is the streamed hypervolume (the server's default
	// projection, lower is better) that time_to_hv_s waits for on the
	// HVKind jobs.
	HVKind   string  `json:"hv_kind"`
	HVTarget float64 `json:"hv_target"`
}

// serveJob is one generated submission.
type serveJob struct {
	kind     string
	req      serve.JobRequest
	body     []byte
	gens     int
	original int // index of the job this resubmits, -1 for an original
}

// serveMixed drives serve.New over loopback HTTP with a closed loop of
// nproc clients. Each client submits its next job only after the previous
// one's stream delivered "done". The job list comes from the seed.
type serveMixed struct {
	p       serveParams
	jobs    []serveJob
	scratch string

	// built by setup for the next pass
	srv   *serve.Server
	hsrv  *http.Server
	base  string
	dir   string
	probs struct {
		sync.Mutex
		list []*tracedProblem // evaluation counters of traced passes
	}
	setups int

	solo map[int][]serve.FrontPoint // sampled solo fronts by job index
}

// serveOutcome is what the client saw of one job.
type serveOutcome struct {
	id        string
	deduped   bool
	status    int
	submit    [2]time.Time // POST sent, response read
	frames    []time.Time
	hvs       []float64
	done      time.Time
	result    *serve.ResultView
	streamErr string
}

type servePassData struct {
	outs      []serveOutcome
	slots     int
	drain     time.Duration
	files     int
	bytes     int64
	evalStats evalStats
}

func newServeMixed(raw json.RawMessage, seed int64, scratch string) (*serveMixed, error) {
	s := &serveMixed{scratch: scratch}
	if err := json.Unmarshal(raw, &s.p); err != nil {
		return nil, fmt.Errorf("serve-mixed params: %w", err)
	}
	s.jobs = genJobs(s.p, seed)
	return s, nil
}

// genJobs lays out the tenant mix: the kinds' exact counts in a seeded
// shuffle, each job with its own seed and generation count, then the
// resubmissions inserted after the jobs they copy.
func genJobs(p serveParams, seed int64) []serveJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []serveJob
	for _, k := range p.Kinds {
		for i := 0; i < k.Count; i++ {
			spec := probspec.Spec{Name: k.Problem}
			if len(k.Grades) == 2 {
				spec.Grade = k.Grades[0] + rng.Intn(k.Grades[1]-k.Grades[0]+1)
			}
			gens := k.GenMin + rng.Intn(k.GenMax-k.GenMin+1)
			req := serve.JobRequest{Problem: spec, Engine: k.Engine, Params: k.Params,
				Options: search.JobOptions{PopSize: k.Pop, Generations: gens, Seed: rng.Int63n(1 << 40)}}
			jobs = append(jobs, serveJob{kind: k.Name, req: req, gens: gens, original: -1})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for r := 0; r < p.Resubmits; r++ {
		// Insert at a position with at least ResubmitLag jobs before it and
		// copy one of those; positions shift, so track originals by index.
		pos := p.ResubmitLag + rng.Intn(len(jobs)-p.ResubmitLag+1)
		orig := rng.Intn(pos - p.ResubmitLag + 1)
		for jobs[orig].original >= 0 {
			orig--
		}
		dup := jobs[orig]
		dup.kind, dup.original = "resubmit", orig
		jobs = append(jobs[:pos], append([]serveJob{dup}, jobs[pos:]...)...)
		for i := pos + 1; i < len(jobs); i++ {
			if jobs[i].original >= pos {
				jobs[i].original++
			}
		}
	}
	for i := range jobs {
		// Cannot fail: the request holds plain values and Params came
		// from valid JSON.
		jobs[i].body, _ = json.Marshal(jobs[i].req)
	}
	return jobs
}

// setup starts a server on a fresh state directory and a loopback listener,
// and waits for its first health check.
func (s *serveMixed) setup(traced bool) error {
	s.setups++
	s.dir = filepath.Join(s.scratch, fmt.Sprintf("serve-%d-%d", os.Getpid(), s.setups))
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	s.probs.list = nil
	build := func(spec probspec.Spec) (objective.Problem, bool, error) {
		prob, circuit, err := spec.BuildValidated()
		if err != nil || !traced {
			return prob, circuit, err
		}
		tp := newTracedProblem(prob, nil, 0)
		s.probs.Lock()
		s.probs.list = append(s.probs.list, tp)
		s.probs.Unlock()
		return tp, circuit, nil
	}
	srv, err := serve.New(serve.Config{Dir: s.dir, Slots: runtime.NumCPU(), Build: build,
		CheckpointEvery: s.p.CheckpointEvery, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return err
	}
	s.srv = srv
	s.hsrv = &http.Server{Handler: srv.Handler()}
	go s.hsrv.Serve(ln)
	s.base = "http://" + ln.Addr().String()
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		s.discard()
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.discard()
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// discard stops the server and removes its state directory.
func (s *serveMixed) discard() {
	if s.srv == nil {
		return
	}
	s.srv.Drain()
	s.hsrv.Close()
	os.RemoveAll(s.dir)
	s.srv, s.hsrv = nil, nil
}

func (s *serveMixed) pass(tr *tracer) (*passOut, error) {
	clients := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: 2 * clients}}
	defer client.CloseIdleConnections()
	outs := make([]serveOutcome, len(s.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.jobs) {
					return
				}
				outs[i] = s.runJob(client, &s.jobs[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	t0 := time.Now()
	s.srv.Drain()
	drain := time.Since(t0)
	s.hsrv.Close()
	data := &servePassData{outs: outs, slots: runtime.NumCPU(), drain: drain}
	filepath.Walk(s.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			data.files++
			data.bytes += info.Size()
		}
		return nil
	})
	os.RemoveAll(s.dir)
	for _, tp := range s.probs.list {
		data.evalStats.addProblem(tp)
	}
	s.srv, s.hsrv = nil, nil

	out := &passOut{wall: wall, data: data}
	var hvWait []float64
	for i, o := range outs {
		j := &s.jobs[i]
		out.attempted++
		if o.result != nil {
			out.ops = append(out.ops, float64(o.done.Sub(o.submit[0]))/1e6)
			if !o.deduped {
				out.evals += o.result.Evals
			}
		}
		switch {
		case o.status/100 != 2:
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("job %d (%s): submit status %d", i, j.kind, o.status))
		case o.result == nil:
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("job %d (%s): no done event: %s", i, j.kind, o.streamErr))
		case o.result.State != serve.StateDone:
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("job %d (%s): ended %s: %s", i, j.kind, o.result.State, o.result.Error))
		}
		if j.kind == s.p.HVKind && o.result != nil {
			reached := o.done
			for k, hv := range o.hvs {
				if hv <= s.p.HVTarget {
					reached = o.frames[k]
					break
				}
			}
			hvWait = append(hvWait, reached.Sub(o.submit[0]).Seconds())
		}
		if tr != nil && o.result != nil {
			s.traceJob(tr, i, &o)
		}
	}
	out.tthv = median(hvWait)
	return out, nil
}

// runJob submits one job and follows its stream to the end.
func (s *serveMixed) runJob(client *http.Client, j *serveJob) (o serveOutcome) {
	o.submit[0] = time.Now()
	resp, err := client.Post(s.base+"/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		o.streamErr = err.Error()
		return o
	}
	o.status = resp.StatusCode
	var sr serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	o.submit[1] = time.Now()
	if o.status/100 != 2 || err != nil {
		o.streamErr = fmt.Sprintf("submit: %v", err)
		return o
	}
	o.id, o.deduped = sr.ID, sr.Deduped
	resp, err = client.Get(s.base + "/jobs/" + sr.ID + "/stream")
	if err != nil {
		o.streamErr = err.Error()
		return o
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "frame":
			var ev serve.FrameEvent
			if json.Unmarshal([]byte(data), &ev) == nil {
				o.frames = append(o.frames, time.Now())
				hv := 0.0
				if ev.HV != nil {
					hv = *ev.HV
				} else {
					hv = 1e308
				}
				o.hvs = append(o.hvs, hv)
			}
		case "done":
			o.done = time.Now()
			var res serve.ResultView
			if err := json.Unmarshal([]byte(data), &res); err != nil {
				o.streamErr = err.Error()
				return o
			}
			o.result = &res
			return o
		}
	}
	o.streamErr = fmt.Sprintf("stream ended without done (%v)", sc.Err())
	return o
}

// traceJob records a job's client-side spans: submit, the wait for the
// first frame (admission, turn queue and Init) and the run to done.
func (s *serveMixed) traceJob(tr *tracer, i int, o *serveOutcome) {
	op := tr.newID()
	kind := s.jobs[i].kind
	ns := func(t time.Time) int64 { return t.UnixNano() }
	tr.add(span{ID: op, Op: op, Name: "serve.job", Label: kind, Start: ns(o.submit[0]), End: ns(o.done)})
	tr.add(span{Parent: op, Op: op, Name: "serve.submit", Label: kind, Start: ns(o.submit[0]), End: ns(o.submit[1])})
	if o.deduped || len(o.frames) == 0 {
		return
	}
	tr.add(span{Parent: op, Op: op, Name: "serve.queue_wait", Label: kind, Start: ns(o.submit[1]), End: ns(o.frames[0])})
	tr.add(span{Parent: op, Op: op, Name: "serve.run", Label: kind, Start: ns(o.frames[0]), End: ns(o.done),
		N: int64(len(o.frames))})
}

// verify: every resubmission returned its original's ID, and a fixed
// sample of fronts is bit-identical to a solo run of the same job.
func (s *serveMixed) verify(p *passOut) ([]string, int) {
	var fails []string
	checks := 0
	outs := p.data.(*servePassData).outs
	deduped := 0
	for i, o := range outs {
		if o.deduped {
			deduped++
		}
		j := s.jobs[i]
		if j.original < 0 {
			continue
		}
		checks++
		if o.id == "" || o.id != outs[j.original].id {
			fails = append(fails, fmt.Sprintf("job %d: resubmission id %q, original %q", i, o.id, outs[j.original].id))
		}
	}
	checks++
	if deduped != s.p.Resubmits {
		fails = append(fails, fmt.Sprintf("%d submits deduplicated, %d resubmissions sent", deduped, s.p.Resubmits))
	}
	if s.solo == nil {
		s.solo = map[int][]serve.FrontPoint{}
		n := 0
		for i, j := range s.jobs {
			if j.original >= 0 {
				continue
			}
			if n%s.p.SoloSample == 0 {
				front, err := soloFront(j.req)
				if err != nil {
					fails = append(fails, fmt.Sprintf("job %d solo run: %v", i, err))
				}
				s.solo[i] = front
			}
			n++
		}
	}
	for _, i := range sortedInts(s.solo) {
		checks++
		if o := outs[i]; o.result == nil || !sameFront(o.result.Front, s.solo[i]) {
			fails = append(fails, fmt.Sprintf("job %d (%s): served front differs from the solo run", i, s.jobs[i].kind))
		}
	}
	return fails, checks
}

func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// soloFront runs a job exactly as the server constructs it, without the
// server: probspec build, counter wrap, registry engine, wire options and
// strictly decoded extension params.
func soloFront(req serve.JobRequest) ([]serve.FrontPoint, error) {
	prob, _, err := req.Problem.BuildValidated()
	if err != nil {
		return nil, err
	}
	eng, err := search.New(req.Engine)
	if err != nil {
		return nil, err
	}
	opts := req.Options.Options()
	if len(req.Params) > 0 {
		extra, _ := search.NewExtra(req.Engine)
		if err := json.Unmarshal(req.Params, extra); err != nil {
			return nil, err
		}
		opts.Extra = extra
	}
	res, err := search.Run(context.Background(), eng, objective.NewCounter(prob), opts)
	if err != nil {
		return nil, err
	}
	return wireFront(res.Front), nil
}

// wireFront is the server's front snapshot: finite individuals only.
func wireFront(front ga.Population) []serve.FrontPoint {
	var out []serve.FrontPoint
	for _, ind := range front {
		if !finiteInd(ind) {
			continue
		}
		out = append(out, serve.FrontPoint{X: ind.X, Objectives: ind.Objectives, Violation: ind.Violation})
	}
	return out
}

func finiteInd(ind *ga.Individual) bool {
	for _, v := range append([]float64{ind.Violation}, ind.Objectives...) {
		if v != v || v > 1e308 || v < -1e308 {
			return false
		}
	}
	return true
}

func sameFront(a, b []serve.FrontPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloats(a[i].X, b[i].X) || !sameFloats(a[i].Objectives, b[i].Objectives) || a[i].Violation != b[i].Violation {
			return false
		}
	}
	return true
}

// layers derives the serve metrics from the client-side spans and the
// evaluation counters of the problems Config.Build handed out.
func (s *serveMixed) layers(tr *tracer, p *passOut) map[string]float64 {
	out := map[string]float64{}
	d := p.data.(*servePassData)
	msOf := func(spans []span) []float64 {
		v := make([]float64, len(spans))
		for i, sp := range spans {
			v[i] = float64(sp.dur()) / 1e6
		}
		return v
	}
	submits := msOf(tr.named("serve.submit"))
	out["serve.submit_ms_p50"] = median(submits)
	sort.Float64s(submits)
	out["serve.submit_ms_p99"] = quantile(submits, 0.99)
	out["serve.queue_wait_ms_p50"] = median(msOf(tr.named("serve.queue_wait")))
	out["serve.run_ms_p50"] = median(msOf(tr.named("serve.run")))
	var gaps []float64
	frames, gens, deduped := 0, 0, 0
	for i, o := range d.outs {
		if o.deduped {
			deduped++
			continue
		}
		for k := 1; k < len(o.frames); k++ {
			gaps = append(gaps, float64(o.frames[k].Sub(o.frames[k-1]))/1e6)
		}
		frames += len(o.frames)
		gens += s.jobs[i].gens + 1 // the Init frame plus one per generation
	}
	out["serve.frame_gap_ms_p50"] = median(gaps)
	out["serve.frames_per_gen"] = ratio(float64(frames), float64(gens))
	out["serve.dedup_ratio"] = ratio(float64(deduped), float64(len(d.outs)))
	slotNs := float64(p.wall) * float64(d.slots)
	out["serve.eval_share"] = ratio(float64(d.evalStats.BusyNs), slotNs)
	out["serve.state_bytes_per_job"] = ratio(float64(d.bytes), float64(len(d.outs)-deduped))
	out["serve.state_files"] = float64(d.files)
	out["serve.drain_s"] = d.drain.Seconds()
	d.evalStats.metrics(out, out["serve.eval_share"])
	out["share serve.queue_wait / serve.job time"] = ratio(sumDur(tr.named("serve.queue_wait")), sumDur(tr.named("serve.job")))
	out["share serve.run / serve.job time"] = ratio(sumDur(tr.named("serve.run")), sumDur(tr.named("serve.job")))
	out["share objective.busy_s / slot time (wall_s x slots)"] = out["serve.eval_share"]
	return out
}

func sumDur(spans []span) float64 {
	t := 0.0
	for _, s := range spans {
		t += float64(s.dur())
	}
	return t
}
