package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func rec(vid uint64) Record {
	return Record{CommitVID: vid, ReadVID: vid - 1, Proc: "p", Args: []byte("0123456789abcdef")}
}

func TestOpenAppendResume(t *testing.T) {
	dir, _ := writeDir(t, rec(1), rec(2), rec(3))

	m := openTestDir(t, dir, DirOptions{})
	if m.Segments() != 1 {
		t.Fatalf("resume opened %d segments, want the existing one", m.Segments())
	}
	m.Append(rec(4))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayVIDs(t, dir); len(got) != 4 || got[3] != 4 {
		t.Fatalf("after resume+append: %v", got)
	}
}

func TestOpenAppendTruncatesTornTail(t *testing.T) {
	dir, seg := writeDir(t, rec(1), rec(2), rec(3))
	fi, _ := os.Stat(seg)
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	m := openTestDir(t, dir, DirOptions{})
	m.Append(rec(3))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayVIDs(t, dir); len(got) != 3 || got[2] != 3 {
		t.Fatalf("after torn resume: %v", got)
	}
	// The torn bytes are gone, not buried under the new record.
	fi2, _ := os.Stat(seg)
	if fi2.Size() != fi.Size() {
		t.Fatalf("segment is %d bytes after resume, want %d", fi2.Size(), fi.Size())
	}
}

// Satellite property test: a segment truncated at EVERY byte offset (the
// full space of torn tails a crash can leave) must always replay as an
// intact record prefix — never ErrCorrupt, never a partial record — and
// OpenDir must truncate it to exactly the prefix replay saw.
func TestTornTailEveryOffset(t *testing.T) {
	var recs []Record
	sizes := []int64{int64(len(magic))} // segment size after each record, sizes[0] = header only
	const records = 6
	for v := uint64(1); v <= records; v++ {
		r := Record{CommitVID: v, ReadVID: v - 1, Proc: "proc", Args: []byte("payload-bytes")}
		recs = append(recs, r)
		sizes = append(sizes, sizes[len(sizes)-1]+int64(len(appendFrame(nil, encodeBody(nil, r)))))
	}
	_, master := writeDir(t, recs...)
	full, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != sizes[records] {
		t.Fatalf("frame accounting: segment is %d bytes, computed %d", len(full), sizes[records])
	}

	// intactBelow(sz) = how many whole records fit in the first sz bytes.
	intactBelow := func(sz int64) int {
		n := 0
		for n < records && sizes[n+1] <= sz {
			n++
		}
		return n
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := intactBelow(cut)

		got := 0
		lastVID := uint64(0)
		if _, err := ReplayDir(dir, 0, func(r Record) error {
			got++
			if r.CommitVID != lastVID+1 {
				t.Fatalf("cut=%d: VID gap (%d after %d)", cut, r.CommitVID, lastVID)
			}
			lastVID = r.CommitVID
			return nil
		}); err != nil {
			t.Fatalf("cut=%d: ReplayDir must tolerate any torn tail, got %v", cut, err)
		}
		if got != want {
			t.Fatalf("cut=%d: replayed %d records, want intact prefix %d", cut, got, want)
		}

		wantLen := sizes[want]
		if cut < int64(len(magic)) {
			wantLen = 0 // torn inside the header: whole file invalid
		}
		validLen, err := walkFile(path, true, nil)
		if err != nil {
			t.Fatalf("cut=%d: walkFile: %v", cut, err)
		}
		if validLen != wantLen {
			t.Fatalf("cut=%d: validLen=%d, want %d", cut, validLen, wantLen)
		}
		m := openTestDir(t, dir, DirOptions{})
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if wantLen == 0 {
			wantLen = int64(len(magic)) // OpenDir rewrites a torn header
		}
		if fi, _ := os.Stat(path); fi.Size() != wantLen {
			t.Fatalf("cut=%d: OpenDir left %d bytes, want %d", cut, fi.Size(), wantLen)
		}
	}
}

// A frame length larger than the bytes left in the segment is refused
// before its body is allocated: in the final segment it is a torn end,
// in a sealed one corruption. Either way replay and OpenDir allocate a
// bounded amount however large the announced length.
func TestReplayOversizedFrameLength(t *testing.T) {
	const bound = 16 << 20 // the reader's buffer plus slack; the frame announces 60 MiB
	seg := append([]byte(magic), appendFrame(nil, encodeBody(nil, rec(1)))...)
	seg = binary.LittleEndian.AppendUint32(seg, 60<<20)
	seg = append(seg, 0, 0, 0, 0, 'x', 'y', 'z')
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		name    string
		sealed  bool
		wantErr error
	}{
		{"final segment: torn end", false, nil},
		{"sealed segment: corrupt", true, ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644)
			if tc.sealed {
				os.WriteFile(filepath.Join(dir, segName(2)), []byte(magic), 0o644)
			}
			var n int
			var err error
			if a := allocated(func() { n, err = ReplayDir(dir, 0, func(Record) error { return nil }) }); a > bound {
				t.Fatalf("ReplayDir allocated %d bytes, want <= %d", a, bound)
			}
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("ReplayDir: err = %v, want %v", err, tc.wantErr)
			}
			if tc.sealed {
				return
			}
			if n != 1 {
				t.Fatalf("replayed %d records, want the intact 1", n)
			}
			var m *Manager
			if a := allocated(func() { m = openTestDir(t, dir, DirOptions{}) }); a > bound {
				t.Fatalf("OpenDir allocated %d bytes, want <= %d", a, bound)
			}
			m.Close()
			if got := replayVIDs(t, dir); len(got) != 1 {
				t.Fatalf("after OpenDir: %v", got)
			}
		})
	}
}

func openTestDir(t *testing.T, dir string, o DirOptions) *Manager {
	t.Helper()
	m, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	m := openTestDir(t, dir, DirOptions{SegmentBytes: 128, StartVID: 1})
	// Each record is ~46 bytes; with a 128-byte threshold the manager
	// rotates every few commits.
	for v := uint64(1); v <= 20; v++ {
		m.Append(rec(v))
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	if segs[0].first != 1 {
		t.Fatalf("first segment named %d, want 1", segs[0].first)
	}
	// Segment names must match their first contained VID: replay each
	// sealed segment and check its first record.
	for i, s := range segs {
		first := uint64(0)
		walkFile(s.path, i == len(segs)-1, func(r Record) error {
			if first == 0 {
				first = r.CommitVID
			}
			return nil
		})
		if first != 0 && first != s.first {
			t.Fatalf("segment %s starts at VID %d", filepath.Base(s.path), first)
		}
	}
	var got []uint64
	n, err := ReplayDir(dir, 0, func(r Record) error { got = append(got, r.CommitVID); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 || len(got) != 20 {
		t.Fatalf("full replay got %d records", n)
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("replay out of order at %d: %v", i, got)
		}
	}
}

func TestReplayDirSkipsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	m := openTestDir(t, dir, DirOptions{SegmentBytes: 128, StartVID: 1})
	for v := uint64(1); v <= 20; v++ {
		m.Append(rec(v))
		m.Commit()
	}
	m.Close()
	for after := uint64(0); after <= 20; after++ {
		var got []uint64
		n, err := ReplayDir(dir, after, func(r Record) error { got = append(got, r.CommitVID); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if n != int(20-after) {
			t.Fatalf("after=%d: replayed %d, want %d", after, n, 20-after)
		}
		if n > 0 && (got[0] != after+1 || got[n-1] != 20) {
			t.Fatalf("after=%d: got range [%d,%d]", after, got[0], got[n-1])
		}
	}
}

func TestTruncateTo(t *testing.T) {
	dir := t.TempDir()
	m := openTestDir(t, dir, DirOptions{SegmentBytes: 128, StartVID: 1})
	for v := uint64(1); v <= 20; v++ {
		m.Append(rec(v))
		m.Commit()
	}
	before := m.Segments()
	if before < 3 {
		t.Fatalf("need several segments, got %d", before)
	}
	if err := m.TruncateTo(10); err != nil {
		t.Fatal(err)
	}
	if m.Segments() >= before {
		t.Fatalf("TruncateTo removed nothing (%d -> %d segments)", before, m.Segments())
	}
	// Everything above the cover must still replay.
	var got []uint64
	if _, err := ReplayDir(dir, 10, func(r Record) error { got = append(got, r.CommitVID); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 11 || got[9] != 20 {
		t.Fatalf("post-truncate replay: %v", got)
	}
	// Truncating everything still keeps the live append segment.
	if err := m.TruncateTo(20); err != nil {
		t.Fatal(err)
	}
	if m.Segments() != 1 {
		t.Fatalf("truncate-all kept %d segments, want 1 (append target)", m.Segments())
	}
	m.Close()
}

func TestOpenDirResumesAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	m := openTestDir(t, dir, DirOptions{SegmentBytes: 1 << 20, StartVID: 1})
	for v := uint64(1); v <= 5; v++ {
		m.Append(rec(v))
		m.Commit()
	}
	m.Close()
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %d", len(segs))
	}
	fi, _ := os.Stat(segs[0].path)
	if err := os.Truncate(segs[0].path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Recovery replays the intact prefix...
	n, err := ReplayDir(dir, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d, want 4", n)
	}
	// ...and reopening truncates the torn bytes and appends after them.
	m2 := openTestDir(t, dir, DirOptions{SegmentBytes: 1 << 20})
	m2.Append(rec(5))
	if err := m2.Commit(); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	var got []uint64
	ReplayDir(dir, 0, func(r Record) error { got = append(got, r.CommitVID); return nil })
	if len(got) != 5 || got[4] != 5 {
		t.Fatalf("after torn resume: %v", got)
	}
}

func TestReplayDirEmptyAndMissing(t *testing.T) {
	n, err := ReplayDir(filepath.Join(t.TempDir(), "nope"), 0, func(Record) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("missing dir: n=%d err=%v", n, err)
	}
	dir := t.TempDir()
	m := openTestDir(t, dir, DirOptions{})
	m.Close()
	n, err = ReplayDir(dir, 0, func(Record) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("empty dir: n=%d err=%v", n, err)
	}
}
