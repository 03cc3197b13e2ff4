package fleet

import (
	"sync"
	"sync/atomic"
	"time"
)

// Frame is one decoded incoming frame (or the read error that ended the
// stream).
type Frame struct {
	Type    FrameType
	Payload []byte
	Err     error
}

// Link is a dialed connection plus its reader goroutine: incoming frames
// (and the terminal stream error) are delivered on Frames in order, so a
// caller can select over them alongside lease and heartbeat timers. The
// channel closes when the stream ends. The link's Codec carries the gob
// stream state of both directions for the connection's lifetime. Like the
// Conn under it, a Link is owned by one user at a time.
type Link struct {
	conn   Conn
	addr   string
	codec  *Codec
	frames chan Frame
	last   atomic.Int64 // unix nanos of the last good frame; liveness stat
	drop   sync.Once
}

// NewLink wraps an already-handshaken connection and starts its reader.
// addr labels the stream in errors and stats.
func NewLink(c Conn, addr string) *Link {
	l := &Link{conn: c, addr: addr, codec: NewCodec(), frames: make(chan Frame, 4)}
	go func() {
		defer close(l.frames)
		for {
			typ, payload, err := ReadFrame(c, addr)
			if err == nil {
				l.last.Store(time.Now().UnixNano())
			}
			l.frames <- Frame{Type: typ, Payload: payload, Err: err}
			if err != nil {
				return
			}
		}
	}()
	return l
}

// Addr names the worker this link reaches.
func (l *Link) Addr() string { return l.addr }

// Frames is the incoming frame stream.
func (l *Link) Frames() <-chan Frame { return l.frames }

// Send encodes v on the link's outgoing gob stream and writes it as one
// frame of type typ. An error leaves the stream state undefined: the link
// is tainted.
func (l *Link) Send(typ FrameType, v any) error {
	payload, err := l.codec.Encode(v)
	if err != nil {
		return err
	}
	return WriteFrame(l.conn, typ, payload)
}

// Decode decodes one incoming frame payload from the link's gob stream
// into v. Payloads must be decoded in the order their frames arrived, and
// a frame that carries no gob payload (a heartbeat) must not be decoded.
// Failures are typed *search.CorruptError and taint the link.
func (l *Link) Decode(payload []byte, v any) error {
	return l.codec.Decode(l.addr, payload, v)
}

// SetDeadline arms (or, with the zero time, clears) read and write
// deadlines on connections that support them — the per-step backstop
// derived from the epoch lease. A no-op elsewhere.
func (l *Link) SetDeadline(t time.Time) {
	if d, ok := l.conn.(Deadliner); ok {
		d.SetDeadline(t)
	}
}

// LastFrame is when the worker last proved liveness on this link (zero
// time if it never has).
func (l *Link) LastFrame() time.Time {
	ns := l.last.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Kill tears the link down immediately (tainted connection) and unblocks
// the reader. Idempotent.
func (l *Link) Kill() {
	l.drop.Do(func() {
		l.conn.Kill()
		l.drain()
	})
}

// Close shuts the link down gracefully (clean worker exit where the
// transport distinguishes one). Idempotent with Kill.
func (l *Link) Close() {
	l.drop.Do(func() {
		l.conn.Close()
		l.drain()
	})
}

// drain consumes the reader goroutine's remaining frames so it can exit.
func (l *Link) drain() {
	for range l.frames {
	}
}
