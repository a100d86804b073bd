package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// batchOf builds n distinguishable get requests.
func batchOf(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			ID:   uint64(i + 1),
			Type: OpGet,
			Key:  "batch-key-" + string(rune('a'+i%26)),
			Tags: Tags{RemainingNanos: int64(1000 + i), Fanout: uint32(n)},
		}
	}
	return reqs
}

func TestWriteBatchRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := batchOf(17)
	if err := w.WriteBatch(want); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	// One frame on the wire: header + payload, nothing after.
	frameLen := int(uint32(buf.Bytes()[0])<<24 | uint32(buf.Bytes()[1])<<16 |
		uint32(buf.Bytes()[2])<<8 | uint32(buf.Bytes()[3]))
	if buf.Len() != 4+frameLen {
		t.Fatalf("batch of %d produced %d bytes, frame claims %d", len(want), buf.Len(), frameLen)
	}
	r := NewReader(&buf)
	var got []Request
	version, err := r.ReadRequests(&got)
	if err != nil {
		t.Fatalf("ReadRequests: %v", err)
	}
	if version != Version {
		t.Fatalf("frame version = %d, want %d", version, Version)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Key != want[i].Key || got[i].Tags != want[i].Tags {
			t.Fatalf("op %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestReadRequestsSingleFrame checks the server-side entry point accepts
// a plain single-op frame and reports the protocol version.
func TestReadRequestsSingleFrame(t *testing.T) {
	var buf bytes.Buffer
	req := Request{ID: 3, Type: OpPut, Key: "k", Value: []byte("v")}
	if err := NewWriter(&buf).WriteRequest(&req); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	var got []Request
	version, err := NewReader(&buf).ReadRequests(&got)
	if err != nil {
		t.Fatalf("ReadRequests: %v", err)
	}
	if version != Version {
		t.Fatalf("reported version %d, want %d", version, Version)
	}
	if len(got) != 1 || got[0].ID != 3 || got[0].Key != "k" {
		t.Fatalf("decoded %+v", got)
	}
}

// TestReadRequestsReuse checks the decode slice and its element buffers
// are reused across frames, and that a wide batch followed by a narrow
// one does not leak stale operations.
func TestReadRequestsReuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBatch(batchOf(8)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(batchOf(2)); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var reqs []Request
	if _, err := r.ReadRequests(&reqs); err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 8 {
		t.Fatalf("first frame decoded %d ops, want 8", len(reqs))
	}
	first := &reqs[0]
	if _, err := r.ReadRequests(&reqs); err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("second frame decoded %d ops, want 2", len(reqs))
	}
	if &reqs[0] != first {
		t.Fatal("decode slice was reallocated between frames")
	}
}

// withVersion re-stamps the version byte of the one encoded frame in
// raw (the payload starts after the 4-byte length header).
func withVersion(raw []byte, v byte) []byte {
	out := append([]byte(nil), raw...)
	out[4] = v
	return out
}

// TestBatchRejects covers the decoder's batch plausibility gates and
// its refusal of every version byte but Version, on requests and
// responses alike.
func TestBatchRejects(t *testing.T) {
	encode := func(payload []byte) []byte {
		frame := make([]byte, 4+len(payload))
		frame[0] = byte(len(payload) >> 24)
		frame[1] = byte(len(payload) >> 16)
		frame[2] = byte(len(payload) >> 8)
		frame[3] = byte(len(payload))
		copy(frame[4:], payload)
		return frame
	}
	var batch, single, resp bytes.Buffer
	if err := NewWriter(&batch).WriteBatch(batchOf(3)); err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(&single).WriteRequest(&Request{ID: 1, Type: OpGet, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(&resp).WriteResponse(&Response{ID: 1, Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"zero count": encode([]byte{Version, kindBatch, 0, 0, 0, 0}),
		// Count claims more ops than the payload could possibly hold.
		"implausible count": encode([]byte{Version, kindBatch, 0, 0, 0, 200}),
		// Count past the protocol ceiling.
		"over MaxBatchOps": encode([]byte{Version, kindBatch, 0xff, 0xff, 0xff, 0xff}),
		"unknown kind":     encode([]byte{Version, 9, 0}),
	}
	for _, v := range []byte{2, 3, 5} {
		cases[fmt.Sprintf("v%d batch", v)] = withVersion(batch.Bytes(), v)
		cases[fmt.Sprintf("v%d request", v)] = withVersion(single.Bytes(), v)
	}
	for name, frame := range cases {
		var reqs []Request
		if _, err := NewReader(bytes.NewReader(frame)).ReadRequests(&reqs); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", name, err)
		}
	}
	for _, v := range []byte{2, 3, 5} {
		var r Response
		frame := withVersion(resp.Bytes(), v)
		if err := NewReader(bytes.NewReader(frame)).ReadResponse(&r); !errors.Is(err, ErrBadMessage) {
			t.Errorf("v%d response: err = %v, want ErrBadMessage", v, err)
		}
	}
	// The untouched frames decode, so the rejections above are the
	// version byte's doing.
	var reqs []Request
	if _, err := NewReader(bytes.NewReader(batch.Bytes())).ReadRequests(&reqs); err != nil {
		t.Fatalf("current batch: %v", err)
	}
	var r Response
	if err := NewReader(bytes.NewReader(resp.Bytes())).ReadResponse(&r); err != nil {
		t.Fatalf("current response: %v", err)
	}
}

// TestWriteBatchTooLarge checks the writer refuses batches past the
// protocol ceiling instead of emitting an undecodable frame.
func TestWriteBatchTooLarge(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteBatch(make([]Request, MaxBatchOps+1)); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
}

// TestEncodeAllocCeiling pins the steady-state allocation cost of the
// hot encode paths: a warmed writer encoding into a bufio'd sink must
// not allocate at all.
func TestEncodeAllocCeiling(t *testing.T) {
	w := NewWriter(io.Discard)
	reqs := batchOf(16)
	resp := Response{ID: 1, Status: StatusOK, Value: []byte("pooled-value")}
	if err := w.WriteBatch(reqs); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := w.WriteBatch(reqs); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("WriteBatch allocates %.1f/op in steady state, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := w.EncodeResponse(&resp); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("EncodeResponse allocates %.1f/op in steady state, want 0", got)
	}
}

// TestDecodeAllocCeiling pins the steady-state allocation cost of the
// server's batch decode: with the request slice and its byte buffers
// warmed, re-decoding the same shape must stay under 2 allocs per op
// (the per-op cost is the Key string; everything else is reused).
func TestDecodeAllocCeiling(t *testing.T) {
	const ops = 16
	var frame bytes.Buffer
	if err := NewWriter(&frame).WriteBatch(batchOf(ops)); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	r := NewReader(bytes.NewReader(raw))
	var reqs []Request
	if _, err := r.ReadRequests(&reqs); err != nil { // warm slice + buffers
		t.Fatal(err)
	}
	src := bytes.NewReader(raw)
	if got := testing.AllocsPerRun(100, func() {
		src.Reset(raw)
		r2 := NewReader(src)
		r2.buf = r.buf // steady state: pooled scratch already sized
		if _, err := r2.ReadRequests(&reqs); err != nil {
			t.Fatal(err)
		}
	}); got > 2*ops+2 {
		t.Errorf("ReadRequests allocates %.1f per %d-op batch, want <= %d", got, ops, 2*ops+2)
	}
}

func TestCoherentTags(t *testing.T) {
	coherent := make([]Request, 4)
	for i := range coherent {
		coherent[i] = Request{
			ID: uint64(i), Type: OpGet,
			Tags: Tags{RemainingNanos: 9000, SlackNanos: 100, DemandNanos: int64(i + 1)},
		}
	}
	if !CoherentTags(coherent) {
		t.Fatal("frame with one RemainingNanos/SlackNanos must be coherent")
	}
	// Per-op demands may differ — only the scheduling decision inputs
	// must agree.
	split := append([]Request(nil), coherent...)
	split[2].Tags.RemainingNanos = 8000
	if CoherentTags(split) {
		t.Fatal("frame with differing RemainingNanos must not be coherent")
	}
	slackSplit := append([]Request(nil), coherent...)
	slackSplit[1].Tags.SlackNanos = 0
	if CoherentTags(slackSplit) {
		t.Fatal("frame with differing SlackNanos must not be coherent")
	}
	if !CoherentTags(nil) || !CoherentTags(coherent[:1]) {
		t.Fatal("empty and single-op frames are trivially coherent")
	}
}
