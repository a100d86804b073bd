package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := Request{
		ID:    42,
		Type:  OpPut,
		Key:   "user:123",
		Value: []byte("hello world"),
		Tags: Tags{
			RemainingNanos:  1_500_000,
			SlackNanos:      300_000,
			BottleneckNanos: 1_200_000,
			DemandNanos:     800_000,
			Fanout:          7,
		},
		Version: 1_722_000_000_123,
	}
	if err := w.WriteRequest(&want); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	var got Request
	if err := NewReader(&buf).ReadRequest(&got); err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if got.ID != want.ID || got.Type != want.Type || got.Key != want.Key {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if !bytes.Equal(got.Value, want.Value) {
		t.Fatalf("value = %q, want %q", got.Value, want.Value)
	}
	if got.Tags != want.Tags {
		t.Fatalf("tags = %+v, want %+v", got.Tags, want.Tags)
	}
	if got.Version != want.Version {
		t.Fatalf("version = %d, want %d", got.Version, want.Version)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := Response{
		ID:     99,
		Status: StatusNotFound,
		Value:  nil,
		Feedback: Feedback{
			QueueLen:     17,
			BacklogNanos: 9_000_000,
			SpeedMilli:   850,
		},
		Version: 77,
		Timing: Timing{
			WaitNanos:    1_250_000,
			ServiceNanos: 430_000,
			SchedClass:   2,
		},
	}
	if err := w.WriteResponse(&want); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	var got Response
	if err := NewReader(&buf).ReadResponse(&got); err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if got.ID != want.ID || got.Status != want.Status {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if got.Feedback != want.Feedback {
		t.Fatalf("feedback = %+v, want %+v", got.Feedback, want.Feedback)
	}
	if got.Version != want.Version {
		t.Fatalf("version = %d, want %d", got.Version, want.Version)
	}
	if got.Timing != want.Timing {
		t.Fatalf("timing = %+v, want %+v", got.Timing, want.Timing)
	}
	if len(got.Value) != 0 {
		t.Fatalf("value = %q, want empty", got.Value)
	}
}

// TestMilliSpeedSaturates asserts the speed feedback conversion clamps
// to the field's range: a speed past ~4.3e6 must not wrap to a small
// number, and a non-positive or NaN speed reads as 0.
func TestMilliSpeedSaturates(t *testing.T) {
	for _, tc := range []struct {
		speed float64
		want  uint32
	}{
		{1, 1000},
		{0.85, 850},
		{0, 0},
		{-2, 0},
		{math.NaN(), 0},
		{4_294_967, 4_294_967_000},
		{4_294_968, math.MaxUint32},
		{5e6, math.MaxUint32},
		{math.Inf(1), math.MaxUint32},
	} {
		if got := MilliSpeed(tc.speed); got != tc.want {
			t.Errorf("MilliSpeed(%v) = %d, want %d", tc.speed, got, tc.want)
		}
	}
	var buf bytes.Buffer
	want := Response{ID: 1, Status: StatusOK, Feedback: Feedback{SpeedMilli: MilliSpeed(1e9)}}
	if err := NewWriter(&buf).WriteResponse(&want); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	var got Response
	if err := NewReader(&buf).ReadResponse(&got); err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if got.Feedback.SpeedMilli != math.MaxUint32 {
		t.Fatalf("speed 1e9 decoded as %d milli, want saturated %d", got.Feedback.SpeedMilli, uint32(math.MaxUint32))
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := uint64(1); i <= 10; i++ {
		req := Request{ID: i, Type: OpGet, Key: "k"}
		if err := w.WriteRequest(&req); err != nil {
			t.Fatalf("WriteRequest %d: %v", i, err)
		}
	}
	r := NewReader(&buf)
	var req Request
	for i := uint64(1); i <= 10; i++ {
		if err := r.ReadRequest(&req); err != nil {
			t.Fatalf("ReadRequest %d: %v", i, err)
		}
		if req.ID != i {
			t.Fatalf("ID = %d, want %d", req.ID, i)
		}
	}
	if err := r.ReadRequest(&req); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

func TestReaderBufferReuseDoesNotAlias(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(&Request{ID: 1, Type: OpPut, Key: "a", Value: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(&Request{ID: 2, Type: OpPut, Key: "b", Value: []byte("second")}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var r1, r2 Request
	if err := r.ReadRequest(&r1); err != nil {
		t.Fatal(err)
	}
	v1 := string(r1.Value)
	if err := r.ReadRequest(&r2); err != nil {
		t.Fatal(err)
	}
	if v1 != "first" || string(r2.Value) != "second" {
		t.Fatalf("values corrupted: %q, %q", v1, r2.Value)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	r := NewReader(bytes.NewReader(hdr[:]))
	var req Request
	if err := r.ReadRequest(&req); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(&Request{ID: 1, Type: OpGet, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-3]
	var req Request
	if err := NewReader(bytes.NewReader(raw)).ReadRequest(&req); err == nil {
		t.Fatal("truncated frame should error")
	}
}

func TestBadVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(&Request{ID: 1, Type: OpGet, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt the version byte (after the 4-byte header)
	var req Request
	if err := NewReader(bytes.NewReader(raw)).ReadRequest(&req); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestRequestAsResponseRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(&Request{ID: 1, Type: OpGet, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := NewReader(&buf).ReadResponse(&resp); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestBadOpTypeRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(&Request{ID: 1, Type: OpType(200), Key: "k"}); err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := NewReader(&buf).ReadRequest(&req); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestRequestRoundTripQuick(t *testing.T) {
	f := func(id uint64, key string, value []byte, rem, slack int64, fanout uint32) bool {
		if rem < 0 {
			rem = -rem
		}
		if slack < 0 {
			slack = -slack
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		want := Request{
			ID: id, Type: OpPut, Key: key, Value: value,
			Tags: Tags{RemainingNanos: rem, SlackNanos: slack, Fanout: fanout},
		}
		if err := w.WriteRequest(&want); err != nil {
			return false
		}
		var got Request
		if err := NewReader(&buf).ReadRequest(&got); err != nil {
			return false
		}
		return got.ID == want.ID && got.Key == want.Key &&
			bytes.Equal(got.Value, want.Value) && got.Tags == want.Tags
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
