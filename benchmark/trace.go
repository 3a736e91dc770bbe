package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/proplog"
	"batchdb/internal/wal"
)

// Span kinds. Request spans (oltp.exec, olap.query, ingest.load) are the
// sessions' own operation records and are written out beside these.
const (
	spanProc = iota // one stored-procedure body: mvcc + index + tpcc logic
	spanIngestProc
	spanWALAppend
	spanWALCommit
	spanPush
	spanSync
	spanExecBatch
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"oltp.proc", "ingest.proc", "wal.append", "wal.commit", "proplog.push", "replica.sync", "exec.batch",
}

// span is one recorded interval. id is the ordinal of the span within
// its kind; parent is the wal.commit ordinal for wal.append spans and 0
// where the wrapper cannot know its caller (the engine exposes no
// request identity at these boundaries; such spans join to requests by
// time containment). n and m are kind-specific counts: records in the
// group commit, queries in the batch, entries and bytes in the push.
type span struct {
	start, dur int64
	id, parent uint32
	n, m       uint32
	kind       uint8
}

// tracer records spans into one preallocated buffer. The wrappers below
// are installed on every run; they record only while on is set, so a
// traced and an untraced run execute the same code path.
type tracer struct {
	on   atomic.Bool
	next atomic.Int64 // spans offered; those beyond len(buf) were dropped
	buf  []span
	seq  [numSpanKinds]atomic.Uint32

	// capture holds the pushes seen while capturing, for the apply
	// probe; capturing is set before the probe's replica is loaded, so
	// that no push between that load and the window is missing.
	capturing    atomic.Bool
	capture      []capturedPush
	captureBytes int
}

type capturedPush struct {
	batches []proplog.Batch
	upTo    uint64
}

const captureLimit = 16 << 20

// entryHeaderBytes is the fixed part of one update-log entry on the wire
// (VID, kind, RowID, offset, size); the payload follows it.
const entryHeaderBytes = 25

var epoch = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

func newTracer(capacity int) *tracer { return &tracer{buf: make([]span, capacity)} }

func (t *tracer) add(s span) {
	s.id = t.seq[s.kind].Add(1)
	if i := t.next.Add(1) - 1; i < int64(len(t.buf)) {
		t.buf[i] = s
	}
}

// spans returns what was recorded and how many spans found the buffer full.
func (t *tracer) spans() (recorded []span, dropped int64) {
	n := t.next.Load()
	kept := min(n, int64(len(t.buf)))
	return t.buf[:kept], n - kept
}

// spanCostNs times what a wrapper adds around the call it wraps: two
// clock reads and one add.
func spanCostNs() float64 {
	const n = 1 << 16
	t := newTracer(n)
	t0 := now()
	for i := 0; i < n; i++ {
		s := now()
		t.add(span{kind: spanProc, start: s, dur: now() - s})
	}
	return float64(now()-t0) / n
}

// wrapProc times a stored-procedure body.
func (t *tracer) wrapProc(kind uint8, p oltp.Procedure) oltp.Procedure {
	return func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		if !t.on.Load() {
			return p(tx, args)
		}
		t0 := now()
		out, err := p(tx, args)
		t.add(span{kind: kind, start: t0, dur: now() - t0})
		return out, err
	}
}

// tracedLog times the command log's Append and Commit. Only the OLTP
// dispatcher calls it, so its fields need no lock.
type tracedLog struct {
	oltp.CommandLog
	t       *tracer
	appends uint32
	commit  uint32 // ordinal the next wal.commit span will get
}

func (l *tracedLog) Append(r wal.Record) error {
	if !l.t.on.Load() {
		return l.CommandLog.Append(r)
	}
	if l.appends == 0 {
		l.commit = l.t.seq[spanWALCommit].Load() + 1
	}
	t0 := now()
	err := l.CommandLog.Append(r)
	l.t.add(span{kind: spanWALAppend, start: t0, dur: now() - t0, parent: l.commit})
	l.appends++
	return err
}

func (l *tracedLog) Commit() error {
	if !l.t.on.Load() {
		l.appends = 0
		return l.CommandLog.Commit()
	}
	t0 := now()
	err := l.CommandLog.Commit()
	l.t.add(span{kind: spanWALCommit, start: t0, dur: now() - t0, n: l.appends})
	l.appends = 0
	return err
}

// tracedSink times the update push: the dispatcher's hand-off of the
// extracted batches, their wire encoding and the enqueue for sending.
type tracedSink struct {
	oltp.UpdateSink
	t *tracer
}

func (s *tracedSink) ApplyUpdates(batches []proplog.Batch, upTo uint64) {
	if !s.t.capturing.Load() {
		s.UpdateSink.ApplyUpdates(batches, upTo)
		return
	}
	t0 := now()
	s.UpdateSink.ApplyUpdates(batches, upTo)
	dur := now() - t0
	var entries, bytes int
	for i := range batches {
		for j := range batches[i].Tables {
			es := batches[i].Tables[j].Entries
			entries += len(es)
			for k := range es {
				bytes += entryHeaderBytes + len(es[k].Data)
			}
		}
	}
	if s.t.on.Load() {
		s.t.add(span{kind: spanPush, start: t0, dur: dur, n: uint32(entries), m: uint32(bytes)})
	}
	// The dispatcher hands the batches over for good (the local replica
	// queues them the same way), so the probe may keep them.
	if s.t.captureBytes < captureLimit {
		s.t.capture = append(s.t.capture, capturedPush{batches, upTo})
		s.t.captureBytes += bytes
	}
}

// tracedPrimary times the replica's sync round trip to the primary.
type tracedPrimary struct {
	olap.Primary
	t *tracer
}

func (p *tracedPrimary) SyncUpdates() uint64 {
	if !p.t.on.Load() {
		return p.Primary.SyncUpdates()
	}
	t0 := now()
	v := p.Primary.SyncUpdates()
	p.t.add(span{kind: spanSync, start: t0, dur: now() - t0})
	return v
}

// FreshSync forwards the wrapped primary's liveness answer, which the
// scheduler discovers through an optional interface.
func (p *tracedPrimary) FreshSync() bool {
	if fc, ok := p.Primary.(olap.FreshnessConfirmer); ok {
		return fc.FreshSync()
	}
	return true
}

// wrapRun times one batch execution.
func (t *tracer) wrapRun(run olap.RunBatchFunc[*exec.Query, exec.Result]) olap.RunBatchFunc[*exec.Query, exec.Result] {
	return func(qs []*exec.Query, snap uint64) []exec.Result {
		if !t.on.Load() {
			return run(qs, snap)
		}
		t0 := now()
		res := run(qs, snap)
		t.add(span{kind: spanExecBatch, start: t0, dur: now() - t0, n: uint32(len(qs))})
		return res
	}
}

// writeTrace writes every span, one JSON object per line.
func writeTrace(path string, spans []span, ops map[string][]op) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"start":%d,"end":%d,"id":%d,"parent":%d,"n":%d,"m":%d}`+"\n",
			spanNames[s.kind], s.start, s.start+s.dur, s.id, s.parent, s.n, s.m)
	}
	for name, list := range ops {
		for _, o := range list {
			fmt.Fprintf(w, `{"name":%q,"start":%d,"end":%d,"id":%d,"parent":0}`+"\n",
				name, o.start, o.end, uint64(o.session)<<32|uint64(o.seq))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
