package ingest

import (
	"errors"
	"fmt"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/obs"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
)

// Config parameterizes a Loader.
type Config struct {
	// ChunkRows is the number of rows per ingest chunk — one chunk is
	// one transaction, one WAL record, one unit of atomicity. Default
	// 1024.
	ChunkRows int
	// Governor configures the admission controller. A zero BaselineP99
	// is auto-measured from the engine's interactive latency histogram
	// over BaselineWindow before the load starts.
	Governor GovernorConfig
	// DisableGovernor runs the load open-throttle at the fixed rate
	// Governor.MaxRate (0 = completely unpaced). The server's
	// `LOAD n OFF` runs unpaced this way; the tests' paced loads set
	// MaxRate to hold a fixed chunk rate.
	DisableGovernor bool
	// SampleEvery is the governor's observation period. Default 50 ms.
	SampleEvery time.Duration
	// MinWindowSamples is the minimum interactive-transaction count a
	// window needs before its p99 is trusted; smaller non-empty windows
	// are extended rather than acted on. Default 8.
	MinWindowSamples int
	// BaselineWindow is how long to measure the unloaded baseline p99
	// when Governor.BaselineP99 is zero. Default 250 ms.
	BaselineWindow time.Duration
	// OnChunk, when set, is called after each chunk's group commit is
	// acknowledged (i.e. the chunk is durable).
	OnChunk func(ChunkAck)
}

func (c *Config) fill() {
	if c.ChunkRows <= 0 {
		c.ChunkRows = 1024
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 50 * time.Millisecond
	}
	if c.MinWindowSamples <= 0 {
		c.MinWindowSamples = 8
	}
	if c.BaselineWindow <= 0 {
		c.BaselineWindow = 250 * time.Millisecond
	}
}

// ChunkAck reports one durably committed chunk.
type ChunkAck struct {
	// Index is the chunk's ordinal within the load (0-based).
	Index int
	// Rows is the chunk's row count.
	Rows int
	// VID is the chunk transaction's commit VID.
	VID uint64
}

// Report summarizes a completed (or failed) load.
type Report struct {
	Rows    int
	Chunks  int
	Retries int
	Elapsed time.Duration
	// RowsPerSec is the achieved ingest rate over the whole load.
	RowsPerSec float64
	// BaselineP99 and Bound are the governor's anchor and ceiling;
	// MaxWindowP99 is the worst trusted window observed during the load.
	BaselineP99  time.Duration
	Bound        time.Duration
	MaxWindowP99 time.Duration
	// FinalRate is the admitted chunk rate when the load finished;
	// Throttles counts governor rate cuts; GovernorEngaged reports
	// whether the governor ever had to throttle.
	FinalRate       float64
	Throttles       uint64
	GovernorEngaged bool
	// FirstVID and LastVID bracket the load's commit VIDs (0 if no
	// chunk committed).
	FirstVID uint64
	LastVID  uint64
}

// Stats holds the loader's observability counters (see RegisterMetrics).
type Stats struct {
	RowsLoaded obs.Counter
	Chunks     obs.Counter
	Retries    obs.Counter
}

// Loader streams rows into one table through the bulk-ingest stored
// procedure, pacing chunk admission with an SLO governor. One Loader
// drives one load at a time; create one per concurrent stream.
type Loader struct {
	e     *oltp.Engine
	table storage.TableID
	cfg   Config
	gov   *Governor
	stats Stats
}

// NewLoader returns a loader targeting table on e. RegisterProc must
// have been called on e before Start.
func NewLoader(e *oltp.Engine, table storage.TableID, cfg Config) *Loader {
	cfg.fill()
	return &Loader{e: e, table: table, cfg: cfg}
}

// Rate returns the currently admitted chunk rate (chunks/sec), or 0
// before a governed load has started.
func (l *Loader) Rate() float64 {
	if l.gov == nil {
		return 0
	}
	return l.gov.Rate()
}

// SliceSource adapts a row slice to the Load source signature.
func SliceSource(rows [][]byte) func() ([]byte, bool) {
	i := 0
	return func() ([]byte, bool) {
		if i >= len(rows) {
			return nil, false
		}
		r := rows[i]
		i++
		return r, true
	}
}

// Load streams rows from src (which returns ok=false at end of stream)
// into the target table. It returns when the stream is exhausted and
// every chunk is durably acknowledged, or on the first unrecoverable
// error — in which case the Report still describes the acknowledged
// prefix, and every acknowledged chunk is durable.
func (l *Loader) Load(src func() ([]byte, bool)) (rep Report, err error) {
	start := time.Now()
	defer func() {
		rep.Elapsed = time.Since(start)
		if rep.Elapsed > 0 {
			rep.RowsPerSec = float64(rep.Rows) / rep.Elapsed.Seconds()
		}
	}()

	hist := &l.e.Stats().Latency
	if !l.cfg.DisableGovernor {
		gcfg := l.cfg.Governor
		if gcfg.BaselineP99 <= 0 {
			gcfg.BaselineP99 = l.measureBaseline(hist)
		}
		l.gov = NewGovernor(gcfg)
		rep.BaselineP99 = gcfg.BaselineP99
		rep.Bound = l.gov.Bound()
	}

	rate := 0.0 // chunks/sec; 0 = unpaced
	if l.gov != nil {
		rate = l.gov.Rate()
	} else if l.cfg.Governor.MaxRate > 0 {
		rate = l.cfg.Governor.MaxRate
	}

	prev := hist.Snapshot()
	lastSample := time.Now()
	next := time.Now()
	buf := make([][]byte, 0, l.cfg.ChunkRows)
	for {
		buf = buf[:0]
		for len(buf) < l.cfg.ChunkRows {
			row, ok := src()
			if !ok {
				break
			}
			buf = append(buf, row)
		}
		if len(buf) == 0 {
			break
		}

		// Pace: one chunk per 1/rate seconds. No debt accumulation — a
		// late chunk does not entitle a burst.
		if rate > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(time.Duration(float64(time.Second) / rate))
			if now := time.Now(); next.Before(now) {
				next = now
			}
		}

		vid, retries, err := l.execChunk(buf)
		rep.Retries += retries
		if err != nil {
			l.finish(&rep)
			return rep, err
		}
		l.stats.RowsLoaded.Add(uint64(len(buf)))
		l.stats.Chunks.Inc()
		if rep.FirstVID == 0 {
			rep.FirstVID = vid
		}
		rep.LastVID = vid
		rep.Rows += len(buf)
		rep.Chunks++
		if l.cfg.OnChunk != nil {
			l.cfg.OnChunk(ChunkAck{Index: rep.Chunks - 1, Rows: len(buf), VID: vid})
		}

		// Governor observation: a windowed p99 of the interactive
		// histogram. Empty window = idle OLTP side = nothing to protect;
		// a sparse window is extended rather than trusted.
		if l.gov != nil && time.Since(lastSample) >= l.cfg.SampleEvery {
			snap := hist.Snapshot()
			win := snap.Delta(&prev)
			switch {
			case win.Count == 0:
				rate = l.gov.Observe(0)
				prev, lastSample = snap, time.Now()
			case win.Count >= uint64(l.cfg.MinWindowSamples):
				p99 := time.Duration(win.Percentile(99))
				if p99 > rep.MaxWindowP99 {
					rep.MaxWindowP99 = p99
				}
				rate = l.gov.Observe(p99)
				prev, lastSample = snap, time.Now()
			}
		}
	}
	l.finish(&rep)
	return rep, nil
}

func (l *Loader) finish(rep *Report) {
	if l.gov != nil {
		rep.FinalRate = l.gov.Rate()
		rep.Throttles = l.gov.Throttles()
		rep.GovernorEngaged = rep.Throttles > 0
	}
}

// measureBaseline samples the unloaded interactive p99 over the
// configured window. With no interactive traffic at all there is
// nothing to anchor to; fall back to a millisecond so the bound stays
// meaningful instead of degenerating to zero.
func (l *Loader) measureBaseline(hist *obs.Histogram) time.Duration {
	before := hist.Snapshot()
	time.Sleep(l.cfg.BaselineWindow)
	after := hist.Snapshot()
	win := after.Delta(&before)
	if win.Count > 0 {
		if p99 := time.Duration(win.Percentile(99)); p99 > 0 {
			return p99
		}
	}
	return time.Millisecond
}

// maxChunkRetries bounds a chunk's retries on write-write conflicts.
const maxChunkRetries = 8

// execChunk submits one chunk, retrying conflicts. The ack only
// arrives after the chunk's group commit, so a nil error means the
// chunk is durable (oltp.ErrNotDurable is unrecoverable here: the
// chunk's fate is unknown, and resuming could double-load it).
func (l *Loader) execChunk(rows [][]byte) (vid uint64, retries int, err error) {
	args := EncodeChunk(l.table, rows)
	for attempt := 0; ; attempt++ {
		resp := l.e.Exec(ProcName, args)
		if resp.Err == nil {
			return resp.CommitVID, retries, nil
		}
		if !errors.Is(resp.Err, mvcc.ErrConflict) || attempt >= maxChunkRetries {
			return 0, retries, fmt.Errorf("ingest: chunk failed after %d retries: %w", retries, resp.Err)
		}
		retries++
		l.stats.Retries.Inc()
	}
}
