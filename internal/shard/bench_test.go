package shard

import (
	"net"
	"testing"

	"sacga/internal/fleet"
)

// BenchmarkShardRoundTrip is one shard request: a pop-25 zdt1 nsga2
// replica checkpoint sent over loopback TCP to an in-process ServeWorker,
// restored, stepped one generation and sent back. The link is reused
// across iterations, as a pool reuses it across epochs, so the row
// measures the steady-state stream, not the first message's type
// descriptors.
func BenchmarkShardRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skip("no loopback listener")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		ServeWorker(c, c, WorkerConfig{Build: buildTestProblem, HeartbeatEvery: -1})
	}()
	defer func() {
		ln.Close()
		<-done
	}()
	tr := &fleet.TCPTransport{Address: ln.Addr().String(), Hello: fleet.HandshakeConfig{Problem: "zdt1"}}
	c, err := tr.Dial()
	if err != nil {
		b.Fatal(err)
	}
	link := fleet.NewLink(c, tr.Addr())
	defer link.Close()
	req := replicaRequest(b)
	b.ReportAllocs()
	for b.Loop() {
		reply, err := roundTrip(link, req, 0, 0)
		if err != nil || reply.Err != "" {
			b.Fatalf("round trip: %v %s", err, reply.Err)
		}
	}
}
