package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"batchdb/internal/obs"
)

// writeDir writes recs into a fresh directory as one segment, one group
// commit per record, and returns the directory and the segment's path.
func writeDir(t *testing.T, recs ...Record) (dir, seg string) {
	t.Helper()
	dir = t.TempDir()
	m := openTestDir(t, dir, DirOptions{StartVID: 1})
	for _, r := range recs {
		if err := m.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, segName(1))
}

// replayVIDs replays dir from the start and returns the commit VIDs.
func replayVIDs(t *testing.T, dir string) []uint64 {
	t.Helper()
	var got []uint64
	if _, err := ReplayDir(dir, 0, func(r Record) error { got = append(got, r.CommitVID); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	want := []Record{
		{CommitVID: 1, ReadVID: 0, Proc: "new_order", Args: []byte("a")},
		{CommitVID: 2, ReadVID: 1, Proc: "payment", Args: nil},
		{CommitVID: 3, ReadVID: 1, Proc: "delivery", Args: []byte{0, 1, 2, 255}},
	}
	dir, _ := writeDir(t, want...)

	var got []Record
	if _, err := ReplayDir(dir, 0, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].CommitVID != want[i].CommitVID || got[i].ReadVID != want[i].ReadVID ||
			got[i].Proc != want[i].Proc || string(got[i].Args) != string(want[i].Args) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestGroupCommitVisibility(t *testing.T) {
	dir := t.TempDir()
	m := openTestDir(t, dir, DirOptions{StartVID: 1})
	defer m.Close()
	if err := m.Append(Record{CommitVID: 1, Proc: "p"}); err != nil {
		t.Fatal(err)
	}
	// Before Commit the record is only buffered; after Commit it must be
	// in the file.
	if got := replayVIDs(t, dir); len(got) != 0 {
		t.Fatalf("replayed %v before Commit, want nothing", got)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := replayVIDs(t, dir); len(got) != 1 {
		t.Fatalf("replayed %v after Commit, want one record", got)
	}
}

func TestReplayTornTail(t *testing.T) {
	var recs []Record
	for i := uint64(1); i <= 5; i++ {
		recs = append(recs, Record{CommitVID: i, Proc: "p", Args: []byte("0123456789")})
	}
	dir, seg := writeDir(t, recs...)
	// Truncate mid-record to simulate a crash during the last write.
	fi, _ := os.Stat(seg)
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayDir(dir, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if n != 4 {
		t.Fatalf("replayed %d records, want 4 (intact prefix)", n)
	}
}

func TestReplayMidFileCorruption(t *testing.T) {
	var recs []Record
	for i := uint64(1); i <= 5; i++ {
		recs = append(recs, Record{CommitVID: i, Proc: "p", Args: []byte("0123456789")})
	}
	dir, seg := writeDir(t, recs...)
	// Flip a byte inside the second record's body.
	b, _ := os.ReadFile(seg)
	first := len(appendFrame(nil, encodeBody(nil, recs[0])))
	b[len(magic)+first+8+10] ^= 0xFF
	os.WriteFile(seg, b, 0o644)
	_, err := ReplayDir(dir, 0, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestReplayEmptyLog(t *testing.T) {
	dir, _ := writeDir(t)
	if _, err := ReplayDir(dir, 0, func(Record) error { t.Fatal("unexpected record"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestReplayBadHeader(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, segName(1)), []byte("NOTAWAL!"), 0o644)
	if _, err := ReplayDir(dir, 0, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad header: err = %v", err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	dir, _ := writeDir(t, Record{CommitVID: 1, Proc: "p"})
	sentinel := errors.New("stop")
	if _, err := ReplayDir(dir, 0, func(Record) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

// Property: arbitrary records survive the encode/replay round trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(recs []Record) bool {
		dir := t.TempDir()
		m, err := OpenDir(dir, DirOptions{StartVID: 1})
		if err != nil {
			return false
		}
		for i := range recs {
			if len(recs[i].Proc) > 1000 {
				recs[i].Proc = recs[i].Proc[:1000]
			}
			if recs[i].CommitVID == 0 {
				recs[i].CommitVID = 1 // replay from the start hands over VIDs > 0
			}
			if err := m.Append(recs[i]); err != nil {
				return false
			}
		}
		if err := m.Close(); err != nil {
			return false
		}
		var got []Record
		if _, err := ReplayDir(dir, 0, func(r Record) error { got = append(got, r); return nil }); err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i].CommitVID != recs[i].CommitVID || got[i].ReadVID != recs[i].ReadVID ||
				got[i].Proc != recs[i].Proc || string(got[i].Args) != string(recs[i].Args) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncOption(t *testing.T) {
	var st obs.DurabilityStats
	dir := t.TempDir()
	m := openTestDir(t, dir, DirOptions{Sync: true, StartVID: 1, Stats: &st})
	if err := m.Append(Record{CommitVID: 1, Proc: "p"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if n := st.WALFsyncNanos.Snapshot().Count; n != 1 {
		t.Fatalf("group commit with Sync recorded %d fsyncs, want 1", n)
	}
}
