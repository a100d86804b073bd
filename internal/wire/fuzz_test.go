package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// seedFrame builds a well-formed request frame to seed the fuzzers.
func seedFrame(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	req := Request{
		ID: 7, Type: OpPut, Key: "seed-key", Value: []byte("seed-value"),
		Tags: Tags{RemainingNanos: 1000, SlackNanos: 10, BottleneckNanos: 900, DemandNanos: 500, Fanout: 3},
	}
	if err := w.WriteRequest(&req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadRequest asserts the decoder never panics and never accepts a
// frame it cannot fully parse.
func FuzzReadRequest(f *testing.F) {
	f.Add(seedFrame(f))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 3, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var req Request
		for i := 0; i < 4; i++ {
			if err := r.ReadRequest(&req); err != nil {
				return // any error is acceptable; panics are not
			}
			if req.Type < OpGet || req.Type > OpIncr {
				t.Fatalf("decoder accepted invalid op type %d", req.Type)
			}
		}
	})
}

// FuzzReadResponse mirrors FuzzReadRequest for the response path.
func FuzzReadResponse(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteResponse(&Response{ID: 9, Status: StatusOK, Value: []byte("x")}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var resp Response
		for i := 0; i < 4; i++ {
			if err := r.ReadResponse(&resp); err != nil {
				return
			}
			if resp.Status < StatusOK || resp.Status > StatusDeadlineExceeded {
				t.Fatalf("decoder accepted invalid status %d", resp.Status)
			}
		}
	})
}

// FuzzServerDecode exercises the server-side decode loop the way a
// malfunctioning or malicious client would: a well-formed request
// stream put through fuzz-chosen truncation, length-prefix inflation,
// and a bit flip. The decoder must never panic, must reject any frame
// claiming more than MaxFrameSize, and whatever it does accept must be
// structurally valid.
func FuzzServerDecode(f *testing.F) {
	seed := seedFrame(f)
	f.Add(seed, uint16(len(seed)), uint32(0), uint8(0))
	f.Add(seed, uint16(4), uint32(0), uint8(0))             // header only
	f.Add(seed, uint16(len(seed)), uint32(1<<31), uint8(0)) // absurd length claim
	f.Add(seed, uint16(len(seed)), uint32(0), uint8(0x35))  // flipped mid-frame
	f.Fuzz(func(t *testing.T, frame []byte, cut uint16, lenOverride uint32, flip uint8) {
		data := append([]byte(nil), frame...)
		if int(cut) < len(data) {
			data = data[:cut] // truncate mid-frame
		}
		if len(data) >= 4 && lenOverride != 0 {
			binary.BigEndian.PutUint32(data[:4], lenOverride) // lie about the size
		}
		if len(data) > 0 {
			data[int(flip)%len(data)] ^= 1 << (flip % 8) // flip one bit
		}
		var wantTooLarge bool
		if len(data) >= 4 {
			wantTooLarge = binary.BigEndian.Uint32(data[:4]) > MaxFrameSize
		}
		r := NewReader(bytes.NewReader(data))
		var req Request
		for i := 0; i < 4; i++ {
			err := r.ReadRequest(&req)
			if err != nil {
				if i == 0 && wantTooLarge && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("oversized claim rejected as %v, want ErrFrameTooLarge", err)
				}
				return // errors are fine; panics and bad accepts are not
			}
			if i == 0 && wantTooLarge {
				t.Fatal("decoder accepted a frame claiming more than MaxFrameSize")
			}
			if req.Type < OpGet || req.Type > OpIncr {
				t.Fatalf("decoder accepted invalid op type %d", req.Type)
			}
			if len(req.Key)+len(req.Value)+len(req.OldValue) > MaxFrameSize {
				t.Fatal("decoded fields exceed the frame bound")
			}
		}
	})
}

// FuzzBatchDecode exercises the server's batch decode path the way a
// broken or hostile client would: a well-formed batch frame put through
// fuzz-chosen count inflation, truncation, and a bit flip. The decoder
// must never panic, must bound what it accepts by the frame's actual
// payload, and every accepted operation must be structurally valid.
func FuzzBatchDecode(f *testing.F) {
	seedBatch := func(n int) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{ID: uint64(i), Type: OpGet, Key: "fuzz-key", Tags: Tags{Fanout: uint32(n)}}
		}
		if err := w.WriteBatch(reqs); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seedBatch(4), uint32(0), uint16(0), uint8(0))
	f.Add(seedBatch(4), uint32(1<<30), uint16(0), uint8(0)) // absurd count claim
	f.Add(seedBatch(8), uint32(0), uint16(40), uint8(0))    // truncated mid-batch
	f.Add(seedBatch(2), uint32(0), uint16(0), uint8(0x47))  // flipped bit
	f.Add(seedBatch(MaxBatchOps), uint32(0), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, frame []byte, countOverride uint32, cut uint16, flip uint8) {
		data := append([]byte(nil), frame...)
		if countOverride != 0 && len(data) >= 10 && data[5] == kindBatch {
			binary.BigEndian.PutUint32(data[6:10], countOverride) // lie about the op count
		}
		if int(cut) != 0 && int(cut) < len(data) {
			data = data[:cut]
		}
		if len(data) > 0 {
			data[int(flip)%len(data)] ^= 1 << (flip % 8)
		}
		r := NewReader(bytes.NewReader(data))
		var reqs []Request
		for i := 0; i < 4; i++ {
			if _, err := r.ReadRequests(&reqs); err != nil {
				return // errors are fine; panics and bad accepts are not
			}
			if len(reqs) == 0 || len(reqs) > MaxBatchOps {
				t.Fatalf("decoder accepted implausible batch of %d ops", len(reqs))
			}
			for j := range reqs {
				if reqs[j].Type < OpGet || reqs[j].Type > OpIncr {
					t.Fatalf("op %d: decoder accepted invalid op type %d", j, reqs[j].Type)
				}
				if len(reqs[j].Key)+len(reqs[j].Value)+len(reqs[j].OldValue) > MaxFrameSize {
					t.Fatalf("op %d: decoded fields exceed the frame bound", j)
				}
			}
		}
	})
}

// FuzzRequestRoundTrip checks that whatever the writer emits, the
// reader returns intact.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint64(1), "key", []byte("value"), int64(100), int64(5), uint32(3))
	f.Add(uint64(0), "", []byte{}, int64(0), int64(0), uint32(0))
	f.Fuzz(func(t *testing.T, id uint64, key string, value []byte, rem, slack int64, fanout uint32) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		want := Request{
			ID: id, Type: OpGet, Key: key, Value: value,
			Tags: Tags{RemainingNanos: rem, SlackNanos: slack, Fanout: fanout},
		}
		if err := w.WriteRequest(&want); err != nil {
			t.Fatalf("WriteRequest: %v", err)
		}
		// Sanity: header length matches the body.
		raw := buf.Bytes()
		if binary.BigEndian.Uint32(raw[:4]) != uint32(len(raw)-4) {
			t.Fatal("header length mismatch")
		}
		var got Request
		if err := NewReader(&buf).ReadRequest(&got); err != nil {
			t.Fatalf("ReadRequest: %v", err)
		}
		if got.ID != want.ID || got.Key != want.Key || !bytes.Equal(got.Value, want.Value) || got.Tags != want.Tags {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
	})
}
