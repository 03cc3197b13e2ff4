package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"sacga/internal/search"
)

// Codec is one connection's gob stream state: a persistent Encoder for the
// payloads this side sends and a persistent Decoder for the payloads it
// receives. Each Encode is one frame's payload and each Decode consumes
// exactly one, so a type's descriptor crosses the wire, and is compiled on
// the receiving side, once per connection instead of once per frame.
//
// The state is only meaningful for the connection it was created with:
// both sides make a fresh Codec per connection (NewLink on the dialer,
// one per ServeWorker call on the worker), so a respawn or redial starts
// fresh streams in both directions. After any Encode or Decode error, or
// a frame lost in transit, the two sides' streams disagree; the connection
// is tainted and must not carry another payload.
//
// A Codec is owned by one goroutine at a time, like the connection.
type Codec struct {
	out bytes.Buffer
	enc *gob.Encoder
	in  bytes.Reader
	dec *gob.Decoder
}

// NewCodec returns a codec at the start of both streams.
func NewCodec() *Codec {
	c := new(Codec)
	c.enc = gob.NewEncoder(&c.out)
	// bytes.Reader is an io.ByteReader, so gob reads it unbuffered: a
	// Decode consumes exactly the messages it needs and leaves any
	// trailing bytes in c.in, where Decode reports them.
	c.dec = gob.NewDecoder(&c.in)
	return c
}

// Encode appends v to the outgoing stream and returns the bytes to send as
// one frame payload. The slice is valid until the next Encode.
func (c *Codec) Encode(v any) ([]byte, error) {
	c.out.Reset()
	if err := c.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("fleet: encode %T: %w", v, err)
	}
	return c.out.Bytes(), nil
}

// Decode reads one frame payload from the incoming stream into v. src
// names the stream in errors. Every failure — a malformed or truncated
// message, a type the stream never defined, trailing bytes, a gob panic —
// is a typed *search.CorruptError: the frame CRC has vouched for the
// bytes, so what remains is a peer on another stream or another protocol.
func (c *Codec) Decode(src string, payload []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &search.CorruptError{Path: src, Reason: fmt.Sprintf("payload decode panicked: %v", r)}
		}
	}()
	c.in.Reset(payload)
	if derr := c.dec.Decode(v); derr != nil {
		return &search.CorruptError{Path: src, Reason: fmt.Sprintf("payload decode: %v", derr)}
	}
	if n := c.in.Len(); n > 0 {
		return &search.CorruptError{Path: src, Reason: fmt.Sprintf("payload has %d trailing bytes", n)}
	}
	return nil
}
