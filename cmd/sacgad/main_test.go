package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestNewHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want %v, %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v; want 0, 0 (SSE streams outlive any deadline)",
			srv.ReadTimeout, srv.WriteTimeout)
	}
}

// TestSlowHeaderConnectionClosed: a client that sends half a request header
// and stalls has its connection closed once ReadHeaderTimeout passes.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: sacgad\r\n")); err != nil {
		t.Fatal(err)
	}
	// Well past the header timeout, well short of the client deadline: a
	// server without the timeout leaves the read to hit the deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 512))
	if err == nil {
		t.Fatalf("server answered a half-sent header with %d bytes", n)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("connection with a stalled header was not closed")
	}
}
