package shard

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"sacga/internal/fleet"
	"sacga/internal/objective"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// pipeConn adapts the coordinator end of a net.Pipe to fleet.Conn.
type pipeConn struct{ net.Conn }

func (c pipeConn) Kill() { c.Conn.Close() }

// tapConn records every byte the coordinator sends and receives, so tests
// can inspect the real frames on the wire.
type tapConn struct {
	net.Conn
	mu         sync.Mutex
	sent, recv bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.recv.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sent.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) Kill() { c.Conn.Close() }

// payloads returns the non-hello frame payloads of one recorded direction.
func (c *tapConn) payloads(t *testing.T, sent bool) [][]byte {
	t.Helper()
	c.mu.Lock()
	buf := &c.recv
	if sent {
		buf = &c.sent
	}
	r := bytes.NewReader(bytes.Clone(buf.Bytes()))
	c.mu.Unlock()
	var out [][]byte
	for r.Len() > 0 {
		typ, payload, err := fleet.ReadFrame(r, "tap")
		if err != nil {
			t.Fatalf("recorded stream: %v", err)
		}
		if typ != fleet.FrameHello {
			out = append(out, payload)
		}
	}
	return out
}

// serveInProcess runs ServeWorker on the far end of a net.Pipe, performs
// the dialer's handshake over wrap(near end) and returns the link. Worker
// heartbeats are off, so every worker frame is a reply.
func serveInProcess(t testing.TB, wrap func(net.Conn) fleet.Conn) *fleet.Link {
	t.Helper()
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		ServeWorker(srv, srv, WorkerConfig{Build: buildTestProblem, HeartbeatEvery: -1})
	}()
	c := wrap(cli)
	if _, err := fleet.ClientHandshake(c, fleet.HandshakeConfig{Problem: "zdt1"}); err != nil {
		t.Fatal(err)
	}
	l := fleet.NewLink(c, "pipe")
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l
}

// replicaRequest is a pop-25 zdt1 nsga2 step request at generation 1,
// its checkpoint produced by an Init request over a throwaway link.
func replicaRequest(t testing.TB) *Request {
	t.Helper()
	opts := search.Options{PopSize: 25, Generations: 1000, Seed: 3}
	req := &Request{Replica: 0, Init: true, Algo: "nsga2", Spec: "zdt1", Opts: ToWire(opts)}
	l := serveInProcess(t, func(c net.Conn) fleet.Conn { return pipeConn{c} })
	reply, err := roundTrip(l, req, 0, 0)
	if err != nil || reply.Err != "" {
		t.Fatalf("init: %v %s", err, reply.Err)
	}
	req.Init, req.Epoch, req.Ckpt = false, 1, reply.Ckpt
	return req
}

// gobTypeDefBytes sums the bytes of the type-definition messages in one
// gob stream payload. Each message is a gob uint length and a body whose
// first item is the type id; a negative id defines a type.
func gobTypeDefBytes(t *testing.T, payload []byte) int {
	t.Helper()
	defs := 0
	for len(payload) > 0 {
		n, w := gobUint(t, payload)
		id, _ := gobUint(t, payload[w:])
		if id&1 == 1 { // gob folds the sign into the low bit
			defs += w + int(n)
		}
		payload = payload[w+int(n):]
	}
	return defs
}

func gobUint(t *testing.T, b []byte) (uint64, int) {
	t.Helper()
	if len(b) == 0 {
		t.Fatal("truncated gob message")
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := int(-int8(b[0]))
	if len(b) < 1+n {
		t.Fatal("truncated gob uint")
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

func checkpointBytes(t *testing.T, cp *search.Checkpoint) []byte {
	t.Helper()
	data, err := search.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStreamStateCarriesTypeDescriptors pins the mechanism: on one link,
// the first request and reply carry gob type definitions and the second
// ones carry none, so the second payloads are smaller by at least those
// bytes; a fresh decoder cannot read a second payload, so the stream
// state is really in use; and a request replayed on a new link steps
// bit-identically to the same request on the primed link and in-process.
func TestStreamStateCarriesTypeDescriptors(t *testing.T) {
	req := replicaRequest(t)
	var tap *tapConn
	link := serveInProcess(t, func(c net.Conn) fleet.Conn {
		tap = &tapConn{Conn: c}
		return tap
	})
	var replies []*Reply
	for range 2 {
		reply, err := roundTrip(link, req, 0, 0)
		if err != nil || reply.Err != "" {
			t.Fatalf("step: %v %s", err, reply.Err)
		}
		replies = append(replies, reply)
	}
	for _, dir := range []struct {
		name string
		sent bool
		v    func() any
	}{
		{"request", true, func() any { return new(Request) }},
		{"reply", false, func() any { return new(Reply) }},
	} {
		ps := tap.payloads(t, dir.sent)
		if len(ps) != 2 {
			t.Fatalf("%s: %d payloads on the wire, want 2", dir.name, len(ps))
		}
		defs := gobTypeDefBytes(t, ps[0])
		if defs == 0 {
			t.Fatalf("first %s carries no type definitions", dir.name)
		}
		if d := gobTypeDefBytes(t, ps[1]); d != 0 {
			t.Fatalf("second %s repeats %d bytes of type definitions", dir.name, d)
		}
		if saved := len(ps[0]) - len(ps[1]); saved < defs {
			t.Fatalf("%s payloads %d then %d bytes: saved %d, want at least the %d type-definition bytes",
				dir.name, len(ps[0]), len(ps[1]), saved, defs)
		}
		if err := fleet.NewCodec().Decode("fresh", ps[0], dir.v()); err != nil {
			t.Fatalf("first %s does not decode on a fresh stream: %v", dir.name, err)
		}
		err := fleet.NewCodec().Decode("fresh", ps[1], dir.v())
		var ce *search.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("second %s on a fresh stream: %v, want *search.CorruptError", dir.name, err)
		}
	}

	fresh := serveInProcess(t, func(c net.Conn) fleet.Conn { return pipeConn{c} })
	replay, err := roundTrip(fresh, req, 0, 0)
	if err != nil || replay.Err != "" {
		t.Fatalf("replay: %v %s", err, replay.Err)
	}
	eng, err := search.New("nsga2")
	if err != nil {
		t.Fatal(err)
	}
	prob := objective.NewCounter(zdt1Prob(t))
	if err := eng.Restore(prob, req.Opts.Options(), req.Ckpt); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	want := checkpointBytes(t, eng.Checkpoint())
	for i, r := range append(replies, replay) {
		if !bytes.Equal(checkpointBytes(t, r.Ckpt), want) {
			t.Fatalf("reply %d checkpoint differs from the in-process step", i)
		}
		if r.Evals != eng.Evals() || r.Gen != eng.Generation() {
			t.Fatalf("reply %d accounting (evals %d, gen %d) != in-process (%d, %d)", i, r.Evals, r.Gen, eng.Evals(), eng.Generation())
		}
	}
}

// forgingTransport dials in-process workers that answer every request
// with a sound frame, but let forge rewrite the reply before it is
// encoded — a worker whose checkpoints cannot be trusted though its CRCs
// pass.
type forgingTransport struct {
	forge func(*Request, *Reply)
}

func (f *forgingTransport) Addr() string { return "forging" }

func (f *forgingTransport) Dial() (fleet.Conn, error) {
	cli, srv := net.Pipe()
	go f.serve(srv)
	c := pipeConn{cli}
	if _, err := fleet.ClientHandshake(c, fleet.HandshakeConfig{Problem: "zdt1"}); err != nil {
		c.Kill()
		return nil, err
	}
	return c, nil
}

func (f *forgingTransport) serve(conn net.Conn) {
	defer conn.Close()
	if _, err := fleet.ServerHandshake(conn, conn, fleet.HandshakeConfig{}); err != nil {
		return
	}
	codec := fleet.NewCodec()
	problems := make(map[string]objective.Problem)
	for {
		typ, payload, err := fleet.ReadFrame(conn, "forging worker")
		if err != nil || typ != fleet.FrameRequest {
			return
		}
		var req Request
		if err := codec.Decode("forging worker", payload, &req); err != nil {
			return
		}
		reply := handleRequest(&req, problems, buildTestProblem)
		f.forge(&req, reply)
		out, err := codec.Encode(reply)
		if err != nil || fleet.WriteFrame(conn, fleet.FrameReply, out) != nil {
			return
		}
	}
}

// TestForgedReplyCheckpointRetried: a reply that passes the frame CRC but
// carries no checkpoint, or one for another engine, is a transport fault —
// the connection is failed, the step retried on a fresh one, and the
// forged state never adopted, so the run is bit-identical to the
// in-process scheduler.
func TestForgedReplyCheckpointRetried(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("nsga2", nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		forge func(*Reply)
	}{
		{"nil", func(r *Reply) { r.Ckpt = nil }},
		{"wrong-algo", func(r *Reply) { r.Ckpt.Algo = "sacga" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var attempts []int
			tr := &forgingTransport{forge: func(req *Request, reply *Reply) {
				if req.Init || req.Replica != 1 || req.Epoch != 2 {
					return
				}
				mu.Lock()
				attempts = append(attempts, req.Attempt)
				mu.Unlock()
				if req.Attempt == 0 {
					tc.forge(reply)
				}
			}}
			pool := fleet.NewPool(tr, tr)
			defer pool.Close()
			opts := baseOpts()
			opts.Extra = &Params{
				Replicas: testReplicas, Algo: "nsga2",
				MigrationEvery: 3, Migrants: 2,
				Pool: pool, Spec: "zdt1", Retries: 2,
			}
			res, err := supervisedRun(t, NameShardedIslands, opts)
			if err != nil {
				t.Fatalf("forged reply was not retried away: %v", err)
			}
			mu.Lock()
			got := append([]int(nil), attempts...)
			mu.Unlock()
			if len(got) != 2 || got[0] != 0 || got[1] != 1 {
				t.Fatalf("replica 1 epoch 2 attempts %v, want [0 1]", got)
			}
			if res.Evals != ref.Evals {
				t.Fatalf("evals %d != in-process %d", res.Evals, ref.Evals)
			}
			popsIdentical(t, "final population", res.Final, ref.Final)
		})
	}
}

// FuzzStreamDecode pins the payload half of the stream contract: whatever
// bytes a frame carries, decoding them as a Request or Reply — on a fresh
// stream, or on one already primed by a valid message of that type — never
// panics and fails only with a typed *search.CorruptError. (The frame
// codec itself is fuzzed in internal/fleet.)
func FuzzStreamDecode(f *testing.F) {
	kinds := []struct {
		name   string
		valid  any
		target func() any
		primer []byte
	}{
		{"request", &Request{Replica: 1, Epoch: 2, Algo: "nsga2", Spec: "zdt1",
			Opts: ToWire(search.Options{PopSize: 4, Generations: 3, Seed: 5})},
			func() any { return new(Request) }, nil},
		{"reply", &Reply{Replica: 1, Epoch: 2, Evals: 3}, func() any { return new(Reply) }, nil},
	}
	for i := range kinds {
		enc := fleet.NewCodec()
		first, err := enc.Encode(kinds[i].valid)
		if err != nil {
			f.Fatal(err)
		}
		first = bytes.Clone(first)
		second, err := enc.Encode(kinds[i].valid)
		if err != nil {
			f.Fatal(err)
		}
		kinds[i].primer = first
		f.Add(first)
		f.Add(bytes.Clone(second))
		f.Add(first[:len(first)-3])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range kinds {
			primed := fleet.NewCodec()
			if err := primed.Decode("fuzz", k.primer, k.target()); err != nil {
				t.Fatalf("priming %s: %v", k.name, err)
			}
			for _, c := range []*fleet.Codec{fleet.NewCodec(), primed} {
				if err := c.Decode("fuzz", data, k.target()); err != nil {
					var ce *search.CorruptError
					if !errors.As(err, &ce) {
						t.Fatalf("%s: non-typed payload error %T: %v", k.name, err, err)
					}
				}
			}
		}
	})
}
