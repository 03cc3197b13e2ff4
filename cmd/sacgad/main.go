// Command sacgad is the optimization job server: the daemon form of
// cmd/sacga. It accepts optimization jobs over HTTP — problem name, engine
// name from the search registry, options and engine parameters, validated
// at admission — runs many jobs concurrently over a bounded shared worker
// budget with fair round-robin scheduling (every job's result stays
// bit-identical to a solo cmd/sacga run of the same configuration),
// streams per-generation progress frames over SSE, and with -dir persists
// per-job checkpoints so jobs survive restarts: on boot the job table is
// replayed from the state directory and interrupted jobs resume from their
// newest trustworthy checkpoint, completing bit-identically to never
// having stopped. Identical submissions dedup onto one execution by
// configuration fingerprint.
//
// With -fleet addr,addr the server additionally owns a shared worker
// fleet: a pool of TCP connections to cmd/sacgaw worker daemons that
// jobs submitting the "sharded-islands" engine draw from (the fleet is
// the operator's; clients cannot name worker commands or addresses).
// Fleet health is served on GET /workers. Without -fleet, sharded jobs
// are rejected at admission.
//
// Endpoints (see internal/serve):
//
//	POST   /jobs              submit a job
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         job status
//	GET    /jobs/{id}/result  final front (409 until the job ends)
//	GET    /jobs/{id}/stream  SSE progress stream
//	POST   /jobs/{id}/cancel  cancel; the best-so-far front is kept
//	GET    /engines           registered engines with their parameter types
//	GET    /workers           shared-fleet worker health (empty without -fleet)
//	GET    /healthz           liveness + drain state
//
// On SIGTERM or SIGINT the server drains gracefully: admission returns
// 503, in-flight generations complete, every running job is checkpointed
// (with -dir), and streams end. A second signal exits immediately.
//
// Exit codes follow cmd/sacga: 0 a clean shutdown with no work lost, 1
// internal error, 2 usage error, 3 drained mid-run (interrupted jobs were
// checkpointed and will resume on the next boot).
//
// Example:
//
//	sacgad -addr :8080 -dir /var/lib/sacgad
//	sacgad -addr :8080 -fleet host1:9750,host2:9750
//	curl -s localhost:8080/jobs -d '{"problem":{"name":"zdt1"},"engine":"sacga","options":{"seed":1,"generations":200},"params":{"Partitions":10}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		dir       = flag.String("dir", "", "state directory for job specs, checkpoints and results ('' = in-memory only; jobs do not survive restarts)")
		slots     = flag.Int("slots", 0, "concurrently stepping jobs, the shared worker budget (0 = NumCPU)")
		workers   = flag.Int("workers", 0, "per-job evaluation parallelism (0 = NumCPU; never changes results)")
		ckptEvery = flag.Int("checkpoint-every", 50, "generations between durable checkpoints of each running job (with -dir)")
		stepTO    = flag.Duration("step-timeout", 0, "per-generation watchdog; a wedged job is failed instead of occupying a slot forever (0 = off)")
		maxJobs   = flag.Int("max-jobs", 0, "admission cap on the job table size (0 = default 10000)")
		fleetList = flag.String("fleet", "", "comma-separated sacgaw worker daemon addresses forming the shared fleet for sharded-islands jobs ('' = sharded jobs rejected)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sacgad: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	var pool *fleet.Pool
	if *fleetList != "" {
		var transports []fleet.Transport
		for _, a := range strings.Split(*fleetList, ",") {
			if a = strings.TrimSpace(a); a != "" {
				transports = append(transports, &fleet.TCPTransport{Address: a})
			}
		}
		if len(transports) == 0 {
			fmt.Fprintln(os.Stderr, "sacgad: -fleet lists no addresses")
			os.Exit(2)
		}
		pool = fleet.NewPool(transports...)
	}

	srv, err := serve.New(serve.Config{
		Dir:             *dir,
		Slots:           *slots,
		Workers:         *workers,
		CheckpointEvery: *ckptEvery,
		StepTimeout:     *stepTO,
		MaxJobs:         *maxJobs,
		Fleet:           pool,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() {
		// The resolved address, not the flag: -addr :0 picks a free port,
		// and scripts (and the CI smoke test) parse this line to find it.
		fmt.Fprintf(os.Stderr, "sacgad: serving on %s (dir=%q)\n", ln.Addr(), *dir)
		errc <- httpSrv.Serve(ln)
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sacgad: %v: draining (again to exit immediately)\n", sig)
	}
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "sacgad: second signal, exiting immediately")
		os.Exit(3)
	}()

	// Drain first: it finishes in-flight generations, checkpoints running
	// jobs, and closes every stream subscription so the SSE handlers unwind
	// — without that, Shutdown would wait on them forever.
	interrupted := srv.Drain()
	if pool != nil {
		pool.Close() // after Drain: no worker goroutine steps a sharded job anymore
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sacgad: shutdown: %v\n", err)
	}
	if interrupted > 0 {
		fmt.Fprintf(os.Stderr, "sacgad: drained with %d job(s) interrupted mid-run; restart with the same -dir to resume\n", interrupted)
		os.Exit(3)
	}
}

// Connection timeouts of the HTTP server. readHeaderTimeout bounds how
// long a client may take to send its request header, so slow clients cannot
// hold connections open without ever making a request; idleTimeout closes
// keep-alive connections left unused between requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server around h. ReadTimeout and
// WriteTimeout stay 0 (no limit) on purpose: an expiring read deadline
// cancels the request context, which ends the handler's work mid-request,
// and a write deadline would cut SSE progress streams, which stay open for
// a job's whole run.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintf(os.Stderr, "sacgad: %v\n", err)
	os.Exit(1)
}
