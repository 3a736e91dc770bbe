package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"batchdb/internal/crash"
	"batchdb/internal/obs"
)

// Segment files are named by the first commit VID they may contain
// ("wal-00000000000000000042.seg"), so recovery can skip whole segments
// that a checkpoint supersedes without opening them, and truncation is a
// plain unlink.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

func segName(firstVID uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstVID, segSuffix)
}

type segInfo struct {
	first uint64 // first commit VID this segment may contain
	path  string
}

// listSegments returns the directory's segments sorted by first VID.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{first: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// DirOptions configures a segmented log Manager.
type DirOptions struct {
	// Sync forces an fsync per group commit.
	Sync bool
	// SegmentBytes is the rotation threshold (default 16 MiB): a Commit
	// that finds the current segment at or above it opens a new one.
	SegmentBytes int64
	// StartVID names the first segment when the directory is empty: the
	// first VID that will be appended (the store watermark + 1).
	StartVID uint64
	// Inj is the crash-injection hook (nil in production).
	Inj *crash.Injector
	// Stats receives WAL byte/segment counters (optional).
	Stats *obs.DurabilityStats
}

// Manager is the segmented command log: one frame format per segment,
// rotation at a size threshold, and truncation of segments superseded
// by a checkpoint. Append/Commit are called by the single OLTP
// dispatcher; TruncateTo by the checkpointer goroutine — a mutex
// serializes them.
type Manager struct {
	dir  string
	sync bool
	inj  *crash.Injector
	st   *obs.DurabilityStats

	mu        sync.Mutex
	f         *os.File
	segs      []segInfo
	size      int64 // bytes in the current (last) segment
	segBytes  int64
	appended  int64 // bytes appended since open (for checkpoint policy)
	pend      []byte
	pendFirst uint64 // first commit VID in pend (0 = none)
	scratch   []byte
}

// OpenDir opens (or initializes) a segment directory for appending. An
// existing last segment has its torn tail truncated — recovery must have
// replayed the directory first, so the intact prefix is exactly what
// recovery saw.
func OpenDir(dir string, o DirOptions) (*Manager, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open dir: %w", err)
	}
	m := &Manager{dir: dir, sync: o.Sync, inj: o.Inj, st: o.Stats, segs: segs, segBytes: o.SegmentBytes}
	if len(segs) == 0 {
		first := o.StartVID
		if first == 0 {
			first = 1
		}
		if err := m.newSegment(first); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		validLen, err := walkFile(last.path, true, nil)
		if err != nil {
			return nil, fmt.Errorf("wal: resume %s: %w", last.path, err)
		}
		f, err := os.OpenFile(last.path, os.O_RDWR, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: resume: %w", err)
		}
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if validLen == 0 {
			// Crash during rotation before the header reached disk.
			if _, err := f.WriteString(magic); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
			validLen = int64(len(magic))
		} else if _, err := f.Seek(validLen, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		m.f = f
		m.size = validLen
	}
	if m.st != nil {
		m.st.WALSegments.Set(int64(len(m.segs)))
	}
	return m, nil
}

// newSegment creates and opens a fresh segment named by firstVID. The
// header is synced before the directory entry, so a crash between the
// two leaves either no segment or a valid empty one.
func (m *Manager) newSegment(firstVID uint64) error {
	path := filepath.Join(m.dir, segName(firstVID))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	if _, err := f.WriteString(magic); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := m.inj.Hit(crash.WALRotate); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(m.dir); err != nil {
		f.Close()
		return err
	}
	m.f = f
	m.size = int64(len(magic))
	m.segs = append(m.segs, segInfo{first: firstVID, path: path})
	if m.st != nil {
		m.st.WALSegments.Set(int64(len(m.segs)))
	}
	return nil
}

// Append buffers one record; it becomes durable at the next Commit. The
// Manager batches into its own buffer (not a bufio.Writer) so crash
// injection controls exactly which bytes reach the file.
func (m *Manager) Append(r Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pendFirst == 0 {
		m.pendFirst = r.CommitVID
	}
	m.scratch = encodeBody(m.scratch[:0], r)
	m.pend = appendFrame(m.pend, m.scratch)
	return nil
}

// Commit makes the buffered batch durable: rotate if the current segment
// is full, write the batch, optionally fsync. After an error (including
// an injected crash) the pending batch is dropped — the dispatcher
// reports the affected transactions as not durable.
func (m *Manager) Commit() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pend) == 0 {
		return nil
	}
	defer func() {
		m.pend = m.pend[:0]
		m.pendFirst = 0
	}()
	if m.size >= m.segBytes {
		// Seal the current segment and open one named by the first VID
		// of the batch about to be written.
		if err := m.f.Sync(); err != nil {
			return err
		}
		if err := m.f.Close(); err != nil {
			return err
		}
		if err := m.newSegment(m.pendFirst); err != nil {
			return err
		}
	}
	k, err := m.inj.HitWrite(crash.WALFlush, len(m.pend))
	if err != nil {
		if k > 0 {
			m.f.Write(m.pend[:k]) // the torn prefix a dying process left
			m.size += int64(k)
		}
		return err
	}
	n, err := m.f.Write(m.pend)
	m.size += int64(n)
	if err != nil {
		return err
	}
	m.appended += int64(n)
	if m.st != nil {
		m.st.WALAppendedBytes.Add(uint64(n))
	}
	if m.sync {
		if err := m.inj.Hit(crash.WALSync); err != nil {
			return err
		}
		t0 := time.Now()
		if err := m.f.Sync(); err != nil {
			return err
		}
		if m.st != nil {
			m.st.WALFsyncNanos.RecordSince(t0)
		}
		return nil
	}
	return nil
}

// Appended returns the bytes appended since open (checkpoint policy
// input).
func (m *Manager) Appended() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appended
}

// TruncateTo unlinks segments wholly covered by VID cover: segment i is
// removable when the next segment starts at or below cover+1, meaning
// every record with VID > cover lives in a later segment. The last
// segment is never removed (it is the append target).
func (m *Manager) TruncateTo(cover uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.segs) >= 2 && m.segs[1].first <= cover+1 {
		if err := m.inj.Hit(crash.WALTruncate); err != nil {
			return err
		}
		if err := os.Remove(m.segs[0].path); err != nil {
			return err
		}
		m.segs = m.segs[1:]
		if m.st != nil {
			m.st.SegmentsTruncated.Inc()
			m.st.WALSegments.Set(int64(len(m.segs)))
		}
	}
	return syncDir(m.dir)
}

// Close flushes any pending batch and closes the current segment.
func (m *Manager) Close() error {
	if err := m.Commit(); err != nil {
		m.mu.Lock()
		m.f.Close()
		m.mu.Unlock()
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.f.Close()
}

// ReplayDir replays every record with CommitVID > after from a segment
// directory, in order. Segments wholly covered by after are skipped
// without being read (recovery cost is bounded by the WAL tail, not
// total history). A torn tail is tolerated only in the final segment;
// anywhere else it is ErrCorrupt, because rotation sealed those files.
func ReplayDir(dir string, after uint64, fn func(Record) error) (int, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: replay dir: %w", err)
	}
	replayed := 0
	for i, s := range segs {
		if i+1 < len(segs) && segs[i+1].first <= after+1 {
			continue // every record here has VID <= after
		}
		final := i == len(segs)-1
		_, err := walkFile(s.path, final, func(r Record) error {
			if r.CommitVID <= after {
				return nil
			}
			replayed++
			return fn(r)
		})
		if err != nil {
			return replayed, fmt.Errorf("wal: segment %s: %w", filepath.Base(s.path), err)
		}
	}
	return replayed, nil
}
