package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestConsistencyRoundTrip pins the trailing consistency byte: levels
// survive single-op and batch frames.
func TestConsistencyRoundTrip(t *testing.T) {
	levels := []Consistency{ConsistencyDefault, ConsistencyOne, ConsistencyQuorum, ConsistencyAll}
	for _, lvl := range levels {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		req := Request{ID: 1, Type: OpGet, Key: "k", Consistency: lvl}
		if err := w.WriteRequest(&req); err != nil {
			t.Fatalf("%s: WriteRequest: %v", lvl, err)
		}
		var got []Request
		version, err := NewReader(&buf).ReadRequests(&got)
		if err != nil {
			t.Fatalf("%s: ReadRequests: %v", lvl, err)
		}
		if version != Version {
			t.Fatalf("%s: version = %d, want %d", lvl, version, Version)
		}
		if len(got) != 1 || got[0].Consistency != lvl {
			t.Fatalf("%s: decoded consistency %v", lvl, got[0].Consistency)
		}
	}

	// Batch frames carry the byte per operation.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	reqs := []Request{
		{ID: 1, Type: OpGet, Key: "a", Consistency: ConsistencyQuorum},
		{ID: 2, Type: OpGet, Key: "b", Consistency: ConsistencyAll},
	}
	if err := w.WriteBatch(reqs); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	var got []Request
	if _, err := NewReader(&buf).ReadRequests(&got); err != nil {
		t.Fatalf("ReadRequests: %v", err)
	}
	if got[0].Consistency != ConsistencyQuorum || got[1].Consistency != ConsistencyAll {
		t.Fatalf("batch consistency = %v, %v", got[0].Consistency, got[1].Consistency)
	}
}

// TestV4OpsRejectedOnOldFrames checks the membership/handoff/incr ops
// (the last ones the op-code range admits) decode on current frames,
// and that the same body under an older version byte is malformed, not
// silently misparsed.
func TestV4OpsRejectedOnOldFrames(t *testing.T) {
	for _, op := range []OpType{OpMembers, OpHandoff, OpIncr} {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteRequest(&Request{ID: 1, Type: op, Key: "k"}); err != nil {
			t.Fatalf("%s: WriteRequest: %v", op, err)
		}
		var got []Request
		if _, err := NewReader(bytes.NewReader(buf.Bytes())).ReadRequests(&got); err != nil || got[0].Type != op {
			t.Fatalf("%s on a current frame: decoded %+v, err %v", op, got, err)
		}
		old := withVersion(buf.Bytes(), 3)
		if _, err := NewReader(bytes.NewReader(old)).ReadRequests(&got); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%s accepted on a version-3 frame: err=%v", op, err)
		}
	}
}

// TestBadConsistencyByteRejected forges a frame whose trailing byte
// names no defined level.
func TestBadConsistencyByteRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(&Request{ID: 1, Type: OpGet, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = 200 // trailing consistency byte
	var got []Request
	if _, err := NewReader(bytes.NewReader(raw)).ReadRequests(&got); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("bad consistency byte accepted: err=%v", err)
	}
}

func TestParseConsistency(t *testing.T) {
	cases := map[string]Consistency{
		"": ConsistencyDefault, "default": ConsistencyDefault,
		"one": ConsistencyOne, "ONE": ConsistencyOne,
		"quorum": ConsistencyQuorum, "QUORUM": ConsistencyQuorum,
		"all": ConsistencyAll, "ALL": ConsistencyAll,
	}
	for in, want := range cases {
		got, err := ParseConsistency(in)
		if err != nil || got != want {
			t.Errorf("ParseConsistency(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseConsistency("two"); err == nil {
		t.Error("ParseConsistency accepted an unknown level")
	}
}
