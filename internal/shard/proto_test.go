package shard

import (
	"errors"
	"testing"

	"sacga/internal/search"
)

// FuzzPayloadDecode pins the payload half of the stream contract: whatever
// bytes a frame carries, decoding them into any shard message never
// panics and fails only with a typed *search.CorruptError. (The frame
// codec itself is fuzzed in internal/fleet.)
func FuzzPayloadDecode(f *testing.F) {
	reply, err := encodePayload(&Reply{Replica: 1, Epoch: 2, Evals: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(reply)
	f.Add(reply[:len(reply)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []any{new(Request), new(Reply), new(Heartbeat)} {
			if err := decodePayload("fuzz", data, v); err != nil {
				var ce *search.CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("non-typed payload error %T: %v", err, err)
				}
			}
		}
	})
}
