package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"time"

	"github.com/daskv/daskv/internal/kv"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent names the span that caused this one (0 = root).
// Start and End are nanoseconds since the run began.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is a span's duration minus the part of its interval that
// its children cover (overlapping children are counted once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// maxKeptSpans bounds the spans held for -spans; the aggregates below
// see every sampled trace regardless.
const maxKeptSpans = 100_000

// recorder turns the client's request traces into spans and the
// layer aggregates derived from them. The spans come from outside the
// program: the client's per-op timeline (OpTrace) and the server's
// piggybacked wire.Timing are what the store already reports.
type recorder struct {
	origin time.Time
	spans  []span

	requests, ops int
	sumSpan       time.Duration // request spans
	sumSelf       time.Duration // request spans minus their op children
	sumGap        time.Duration // request span − median sibling end
	sumStraggler  time.Duration // the straggler op's wait + service
	sumTransit    time.Duration // op span − wait − service
	sumService    time.Duration
	sumWait       time.Duration
	waits         *samples

	lastSeq  uint64
	children []span
	ends     []time.Duration
}

func newRecorder(origin time.Time) *recorder {
	return &recorder{origin: origin, waits: newSamples(1 << 20)}
}

// addSpan keeps s for the dump while there is room.
func (r *recorder) addSpan(s span) {
	if len(r.spans) < maxKeptSpans {
		r.spans = append(r.spans, s)
	}
}

// collect drains the client's trace ring: traces newer than the last
// call, started inside [from, to).
func (r *recorder) collect(cl *kv.Client, from, to time.Time) {
	traces := cl.Traces(traceDepth)
	newest := r.lastSeq
	for i := len(traces) - 1; i >= 0; i-- { // oldest first
		t := &traces[i]
		if t.Seq <= r.lastSeq {
			continue
		}
		newest = max(newest, t.Seq)
		if t.Start.Before(from) || !t.Start.Before(to) || t.Partial {
			continue
		}
		r.observe(t)
	}
	r.lastSeq = newest
}

// observe folds one request trace into the aggregates: a root span for
// the client call, one child per operation, and the server's reported
// wait and service as grandchildren placed at the end of the op (the
// response carries durations, not instants).
func (r *recorder) observe(t *kv.RequestTrace) {
	base := t.Start.Sub(r.origin).Nanoseconds()
	root := span{Trace: t.Seq, ID: 1, Name: "kv.client.request", Start: base, End: base + int64(t.RCT)}
	r.children = r.children[:0]
	r.ends = r.ends[:0]
	r.addSpan(root)
	for i := range t.Ops {
		op := &t.Ops[i]
		id := uint32(2 + 3*i)
		child := span{Trace: t.Seq, ID: id, Parent: 1, Name: "kv.client.op", Start: base + int64(op.Start), End: base + int64(op.End)}
		r.children = append(r.children, child)
		r.ends = append(r.ends, op.End)
		r.addSpan(child)
		svcStart := child.End - int64(op.Service)
		r.addSpan(span{Trace: t.Seq, ID: id + 1, Parent: id, Name: "kv.server.wait", Start: svcStart - int64(op.Wait), End: svcStart})
		r.addSpan(span{Trace: t.Seq, ID: id + 2, Parent: id, Name: "kv.server.service", Start: svcStart, End: child.End})

		r.ops++
		r.sumTransit += op.End - op.Start - op.Wait - op.Service
		r.sumService += op.Service
		r.sumWait += op.Wait
		r.waits.add(op.Wait)
	}
	r.requests++
	if st := t.Straggler(); st != nil {
		r.sumStraggler += st.Wait + st.Service
	}
	r.sumSpan += t.RCT
	r.sumSelf += selfTime(root, r.children)
	slices.Sort(r.ends)
	r.sumGap += t.RCT - r.ends[(len(r.ends)-1)/2]
}

func (r *recorder) perRequest(d time.Duration) float64 {
	if r.requests == 0 {
		return 0
	}
	return us(d) / float64(r.requests)
}

func (r *recorder) perOp(d time.Duration) float64 {
	if r.ops == 0 {
		return 0
	}
	return us(d) / float64(r.ops)
}

// dump writes the kept spans as JSON lines.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
