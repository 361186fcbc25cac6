package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// spanKind names where a span was taken. The layer spans wrap one call
// into a layer's public function; the others give them a parent.
type spanKind uint8

const (
	spBlock spanKind = iota
	spRefSlice
	spEngSlice
	spOp
	spNewEngine
	spExecute
	spClose
	spSubmit
	spWait
	spSimRun
	spRunSerial
	spWalk
	spCalib
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"block", "slice.ref", "slice.eng", "op",
	"core.NewEngine", "core.Engine.Execute", "core.Engine.Close",
	"core.Engine.Submit", "core.Ticket.Wait", "sim.Run",
	"bench.RunSerial", "serial-walk", "calib",
}

// maxSpans bounds the trace a run keeps in memory (32 bytes a span). A
// submit block alone records 12k spans; once the buffer is full, begin
// returns noSpan and the remaining blocks run untraced.
const maxSpans = 1 << 18

const noSpan = int32(-1)

type span struct {
	start, end int64 // ns since the tracer was made
	parent     int32 // index of the span that caused this one, or noSpan
	op         int32 // operation id shared by the spans of one request
	kind       spanKind
}

// tracer records spans from the benchmark's side of each layer boundary.
// All methods are no-ops on a nil tracer, so the untraced run executes the
// same code with one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) full() bool { return t != nil && len(t.spans) == cap(t.spans) }

func (t *tracer) begin(kind spanKind, parent, op int32) int32 {
	if t == nil {
		return noSpan
	}
	return t.beginAt(kind, parent, op, time.Now())
}

// beginAt opens a span at a time the caller already read.
func (t *tracer) beginAt(kind spanKind, parent, op int32, at time.Time) int32 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return noSpan
	}
	t.spans = append(t.spans, span{kind: kind, parent: parent, op: op, start: int64(at.Sub(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id != noSpan {
		t.spans[id].end = int64(time.Since(t.t0))
	}
}

func (t *tracer) endAt(id int32, at time.Time) {
	if id != noSpan {
		t.spans[id].end = int64(at.Sub(t.t0))
	}
}

// durations returns the length of every span of one kind, in ns.
func (t *tracer) durations(kind spanKind) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.kind == kind {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, per span kind, total duration minus the part of it
// that child spans cover. Spans are appended in start order by the one
// generator goroutine, so a running "covered until" mark per parent is
// enough to take the union of overlapping children (submit-hi keeps 128
// operations open at once).
func (t *tracer) selfTimes() (self [numSpanKinds]int64, count [numSpanKinds]int) {
	covered := make([]int64, len(t.spans)) // ns of each span covered by children
	mark := make([]int64, len(t.spans))    // end of the latest child seen
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent == noSpan {
			continue
		}
		from := s.start
		if m := mark[s.parent]; m > from {
			from = m
		}
		if s.end > from {
			covered[s.parent] += s.end - from
			mark[s.parent] = s.end
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		self[s.kind] += s.end - s.start - covered[i]
		count[s.kind]++
	}
	return self, count
}

// write stores the trace as one JSON object: the span names, per-name
// self time, and every span as [kind, start_ns, end_ns, parent, op].
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"truncated\":%t,\n\"names\":[", workload, seed, t.full())
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"self_ns\":{")
	self, _ := t.selfTimes()
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:%d", n, self[i])
	}
	w.WriteString("},\n\"spans\":[\n")
	var buf []byte
	for i := range t.spans {
		s := &t.spans[i]
		buf = append(buf[:0], '[')
		buf = strconv.AppendInt(buf, int64(s.kind), 10)
		for _, v := range [...]int64{s.start, s.end, int64(s.parent), int64(s.op)} {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		if i < len(t.spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
