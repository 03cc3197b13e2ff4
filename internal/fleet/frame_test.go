package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"

	"sacga/internal/fault"
	"sacga/internal/search"
)

// sealFrame builds one complete frame's bytes.
func sealFrame(t testing.TB, typ FrameType, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantCorrupt asserts a ReadFrame error is a typed *search.CorruptError.
func wantCorrupt(t *testing.T, what string, err error) {
	t.Helper()
	var ce *search.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: error is %T (%v), want *search.CorruptError", what, err, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xa5}, 4096)}
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrame(&buf, FrameType(1+i%3), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf, "test")
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != FrameType(1+i%3) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, 1+i%3)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := ReadFrame(&buf, "test"); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestFrameTruncation: every torn prefix of a valid frame is a typed
// corruption (except the zero-byte cut, which is a clean EOF boundary).
// The cuts run through fault.Truncate on a real file — the same attack
// primitive the checkpoint torn-write suite uses.
func TestFrameTruncation(t *testing.T) {
	frame := sealFrame(t, FrameRequest, []byte("truncation victim payload"))
	dir := t.TempDir()
	for keep := len(frame) - 1; keep >= 0; keep-- {
		path := filepath.Join(dir, "frame")
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fault.Truncate(path, int64(keep)); err != nil {
			t.Fatal(err)
		}
		torn, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, _, rerr := ReadFrame(bytes.NewReader(torn), "test")
		if keep == 0 {
			if rerr != io.EOF {
				t.Fatalf("empty cut: %v, want io.EOF", rerr)
			}
			continue
		}
		if rerr == nil {
			t.Fatalf("keep=%d: torn frame decoded cleanly", keep)
		}
		wantCorrupt(t, "torn frame", rerr)
	}
}

// TestFrameFlipBit: flipping any single bit of a frame — header, payload
// or CRC — yields a typed corruption, never a clean decode or a panic.
// Every byte position is attacked through fault.FlipBit.
func TestFrameFlipBit(t *testing.T) {
	frame := sealFrame(t, FrameReply, []byte("bitflip victim payload"))
	dir := t.TempDir()
	for byteIdx := 0; byteIdx < len(frame); byteIdx++ {
		for _, bit := range []int64{0, 7} {
			path := filepath.Join(dir, "frame")
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fault.FlipBit(path, int64(byteIdx)*8+bit); err != nil {
				t.Fatal(err)
			}
			flipped, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, _, rerr := ReadFrame(bytes.NewReader(flipped), "test")
			if rerr == nil {
				t.Fatalf("byte %d bit %d: flipped frame decoded cleanly", byteIdx, bit)
			}
			wantCorrupt(t, "flipped frame", rerr)
		}
	}
}

// TestFrameOversizedLength: a length field past the cap is rejected before
// any allocation its value would imply.
func TestFrameOversizedLength(t *testing.T) {
	frame := sealFrame(t, FrameRequest, []byte("x"))
	// Overwrite the length field (bytes 5..9) with MaxFramePayload+1.
	frame[5], frame[6], frame[7], frame[8] = 0x01, 0x00, 0x00, 0x41 // 1<<30 + 1 LE
	_, _, err := ReadFrame(bytes.NewReader(frame), "test")
	wantCorrupt(t, "oversized length", err)
}

// TestFrameLengthBomb: a forged header claiming the largest legal payload,
// then EOF, is a typed corruption error, and the reader's memory tracks the
// bytes that arrived rather than the length the header claims.
func TestFrameLengthBomb(t *testing.T) {
	var header [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], frameMagic)
	header[4] = byte(FrameRequest)
	binary.LittleEndian.PutUint32(header[5:9], MaxFramePayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(header[:]), "bomb")
	runtime.ReadMemStats(&after)
	wantCorrupt(t, "length bomb", err)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 9-byte forged header allocated %d bytes, want under 1 MiB", grew)
	}
}

// TestFrameChunkedPayload: payloads that span several read chunks, or end
// exactly on a chunk boundary, round-trip through a reader that returns a
// few bytes per call, and a truncation past the first chunk is corruption.
func TestFrameChunkedPayload(t *testing.T) {
	for _, n := range []int{readChunk - 4, readChunk, 3*readChunk + 17} {
		payload := bytes.Repeat([]byte{0x5a, 0x3c, 0x99}, n/3+1)[:n]
		frame := sealFrame(t, FrameReply, payload)
		typ, got, err := ReadFrame(iotest.HalfReader(bytes.NewReader(frame)), "test")
		if err != nil || typ != FrameReply || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload: type %d, %d bytes, err %v", n, typ, len(got), err)
		}
		_, _, err = ReadFrame(bytes.NewReader(frame[:len(frame)-readChunk/2]), "test")
		wantCorrupt(t, "truncated chunked frame", err)
	}
}

// FuzzFrameDecode pins the codec's total-safety contract: arbitrary bytes
// never panic, never hang, and produce only io.EOF, a typed
// *search.CorruptError, or a clean frame; a clean hello frame's payload
// then decodes under the same guarantee.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(sealFrame(f, FrameRequest, []byte("seed")))
	var hello bytes.Buffer
	if err := writeHello(&hello, &Hello{Proto: ProtocolVersion, Build: "seed"}); err != nil {
		f.Fatal(err)
	}
	full := hello.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(append(append([]byte(nil), full...), full...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := ReadFrame(r, "fuzz")
			if err == io.EOF {
				return
			}
			if err != nil {
				wantCorrupt(t, "frame", err)
				return
			}
			if typ != FrameHello {
				continue // other payloads are the shard protocol's to decode
			}
			if _, herr := readHello(bytes.NewReader(sealFrame(t, typ, payload))); herr != nil {
				wantCorrupt(t, "hello payload", herr)
				return
			}
		}
	})
}
