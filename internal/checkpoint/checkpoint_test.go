package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"batchdb/internal/mvcc"
	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// newKVStore builds a store with one kv(k,v int64) table.
func newKVStore() (*mvcc.Store, *mvcc.Table) {
	store := mvcc.NewStore()
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 1024)
	return store, tbl
}

func loadKV(t testing.TB, tbl *mvcc.Table, k, v int64) {
	t.Helper()
	tup := tbl.Schema.NewTuple()
	tbl.Schema.PutInt64(tup, 0, k)
	tbl.Schema.PutInt64(tup, 1, v)
	if err := tbl.LoadRow(tup); err != nil {
		t.Fatal(err)
	}
}

func TestWriteVerifyRestoreRoundTrip(t *testing.T) {
	store, tbl := newKVStore()
	// Enough rows to span multiple rows-frames (rowsPerFrame = 512).
	const rows = 1200
	for i := int64(1); i <= rows; i++ {
		loadKV(t, tbl, i, i*10)
	}
	dir := t.TempDir()
	info, err := Write(dir, store, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != rows || info.VID != 0 || info.Bytes <= 0 {
		t.Fatalf("info = %+v", info)
	}
	vid, err := Verify(info.Path)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if vid != 0 {
		t.Fatalf("verify vid = %d", vid)
	}

	rec, tbl2 := newKVStore()
	rvid, n, err := Restore(info.Path, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rvid != 0 || n != rows {
		t.Fatalf("restore: vid=%d rows=%d", rvid, n)
	}
	if !SumsEqual(SumAt(store, 0), SumAt(rec, 0)) {
		t.Fatal("restored state differs from original")
	}
	// Spot-check one row through a snapshot read.
	ro := rec.BeginROAt(0)
	defer ro.Release()
	tup, ok := ro.Get(tbl2, 7)
	if !ok || tbl2.Schema.GetInt64(tup, 1) != 70 {
		t.Fatalf("row 7 wrong after restore (ok=%v)", ok)
	}
}

// TestRestoreReproducesSumAndKeys restores a checkpoint taken after
// deletes, updates and an insert of key 0, and checks the fingerprint and that
// every key reads its own tuple.
func TestRestoreReproducesSumAndKeys(t *testing.T) {
	store, tbl := newKVStore()
	for i := int64(1); i <= 50; i++ {
		loadKV(t, tbl, i, i)
	}
	tx := store.BeginAt(0)
	for k := uint64(1); k <= 50; k += 7 {
		if err := tx.Delete(tbl, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(3); k <= 50; k += 7 {
		if err := tx.Update(tbl, k, []int{1}, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, -int64(k)) }); err != nil {
			t.Fatal(err)
		}
	}
	tup := tbl.Schema.NewTuple()
	tbl.Schema.PutInt64(tup, 0, 0)
	if err := tx.Insert(tbl, tup); err != nil {
		t.Fatal(err)
	}
	snap, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}

	info, err := Write(t.TempDir(), store, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, tbl2 := newKVStore()
	if _, _, err := Restore(info.Path, rec); err != nil {
		t.Fatal(err)
	}
	if !SumsEqual(SumAt(store, snap), SumAt(rec, 0)) {
		t.Fatalf("restored fingerprint %v, original %v", SumAt(rec, 0), SumAt(store, snap))
	}
	ro, ro2 := store.BeginROAt(snap), rec.BeginROAt(0)
	defer ro.Release()
	defer ro2.Release()
	want := 0
	tbl.Scan(ro, func(key uint64, tup []byte) bool {
		want++
		if got, ok := ro2.Get(tbl2, key); !ok || !bytes.Equal(got, tup) {
			t.Errorf("key %d restores as %x,%v, want %x", key, got, ok, tup)
		}
		return true
	})
	tbl2.Scan(ro2, func(key uint64, tup []byte) bool {
		if tbl2.KeyFn(tup) != key {
			t.Errorf("restored key %d holds the tuple of key %d", key, tbl2.KeyFn(tup))
		}
		want--
		return true
	})
	if want != 0 {
		t.Fatalf("restore holds %d rows more or fewer than the original", -want)
	}
}

// row is one hand-built checkpoint row: the u64 it is stored under and
// its tuple.
type row struct {
	key uint64
	tup []byte
}

// handBuiltFile returns a checkpoint file with the given magic and one
// table (id 1) of rows, every frame carrying a correct length and CRC.
func handBuiltFile(t *testing.T, magic string, rows []row) string {
	t.Helper()
	file := []byte(magic)
	frame := func(body []byte) {
		file = binary.LittleEndian.AppendUint32(file, uint32(len(body)))
		file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(body, crcTable))
		file = append(file, body...)
	}
	frame(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64([]byte{kindHeader}, 9), 1))
	chunks := proplog.NewRowChunker(1, len(rows), func(chunk []byte) error {
		frame(append([]byte{kindRows}, chunk...))
		return nil
	})
	for _, r := range rows {
		chunks.Add(r.key, r.tup)
	}
	chunks.Flush()
	frame(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint16([]byte{kindTable}, 1), uint64(len(rows))))
	frame(binary.LittleEndian.AppendUint64([]byte{kindTrailer}, uint64(len(rows))))
	path := filepath.Join(t.TempDir(), "hand.ck")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func kvTup(tbl *mvcc.Table, k, v int64) []byte {
	tup := tbl.Schema.NewTuple()
	tbl.Schema.PutInt64(tup, 0, k)
	tbl.Schema.PutInt64(tup, 1, v)
	return tup
}

// TestVerifyRefusesV1File: a version-1 file — rows under a per-row
// surrogate in the same bytes a v2 key takes, every CRC valid — is
// ErrInvalid on its magic, for Verify and Restore alike.
func TestVerifyRefusesV1File(t *testing.T) {
	rec, tbl := newKVStore()
	path := handBuiltFile(t, "BDBCKPT1", []row{{17, kvTup(tbl, 1, 10)}, {3, kvTup(tbl, 2, 20)}})
	if _, err := Verify(path); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Verify(v1) = %v, want ErrInvalid", err)
	}
	if _, _, err := Restore(path, rec); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Restore(v1) = %v, want ErrInvalid", err)
	}
	if n := tbl.NumChains(); n != 0 {
		t.Fatalf("a refused v1 file loaded %d rows", n)
	}
	// The same rows under their keys and the v2 magic restore.
	path = handBuiltFile(t, fileMagic, []row{{1, kvTup(tbl, 1, 10)}, {2, kvTup(tbl, 2, 20)}})
	if _, n, err := Restore(path, rec); err != nil || n != 2 {
		t.Fatalf("Restore(v2) = %d rows, %v", n, err)
	}
}

// TestRestoreRejectsBadRows: a file whose frames are sound but whose
// rows the table cannot take verifies, and fails Restore with
// ErrInvalid naming the table.
func TestRestoreRejectsBadRows(t *testing.T) {
	_, tbl := newKVStore()
	for name, rows := range map[string][]row{
		"key not the tuple's": {{1, kvTup(tbl, 1, 10)}, {5, kvTup(tbl, 2, 20)}},
		"wrong width":         {{1, kvTup(tbl, 1, 10)}, {2, append(kvTup(tbl, 2, 20), 0)}},
		"short tuple":         {{1, kvTup(tbl, 1, 10)}, {2, kvTup(tbl, 2, 20)[:8]}},
		"duplicate key":       {{1, kvTup(tbl, 1, 10)}, {1, kvTup(tbl, 1, 11)}},
	} {
		path := handBuiltFile(t, fileMagic, rows)
		if _, err := Verify(path); err != nil {
			t.Fatalf("%s: Verify = %v; the frames are sound", name, err)
		}
		rec, _ := newKVStore()
		_, _, err := Restore(path, rec)
		if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "table kv") {
			t.Errorf("%s: Restore = %v, want ErrInvalid naming table kv", name, err)
		}
	}
}

func TestVerifyDetectsDamage(t *testing.T) {
	store, tbl := newKVStore()
	for i := int64(1); i <= 600; i++ {
		loadKV(t, tbl, i, i)
	}
	dir := t.TempDir()
	info, err := Write(dir, store, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func([]byte) []byte{
		"flip body byte":  func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b },
		"truncate tail":   func(b []byte) []byte { return b[:len(b)-9] },
		"drop trailer":    func(b []byte) []byte { return b[:len(b)-(8+1+8)] },
		"bad magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"append garbage":  func(b []byte) []byte { return append(b, 0xDE, 0xAD, 0xBE, 0xEF) },
		"truncate header": func(b []byte) []byte { return b[:4] },
		// 20 bytes that announce a 256 MiB first frame: refused by the
		// bytes left in the file, not by reading (or allocating) them.
		"oversized frame length": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(fileMagic):], 256<<20)
			return b[:20]
		},
	}
	for name, f := range damage {
		broken := f(append([]byte(nil), pristine...))
		if err := os.WriteFile(info.Path, broken, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Verify(info.Path)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Verify = %v, want ErrInvalid", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
			t.Errorf("%s: Verify allocated %d bytes for a %d-byte file", name, alloc, len(broken))
		}
		// Restore must refuse the same way, without partial effects
		// escaping (it verifies structurally as it reads).
		rec, _ := newKVStore()
		if _, _, err := Restore(info.Path, rec); err == nil {
			t.Errorf("%s: Restore accepted a damaged checkpoint", name)
		}
	}
	// Sanity: the pristine bytes still verify.
	if err := os.WriteFile(info.Path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if vid, err := Verify(info.Path); err != nil || vid != 42 {
		t.Fatalf("pristine verify: vid=%d err=%v", vid, err)
	}
}

func TestWriteIsSnapshotConsistent(t *testing.T) {
	store, tbl := newKVStore()
	loadKV(t, tbl, 1, 100)
	// Commit a change at VID 1: the checkpoint at snap 0 must not see it.
	tx := store.BeginAt(0)
	if err := tx.Update(tbl, 1, nil, func(tup []byte) {
		tbl.Schema.PutInt64(tup, 1, 999)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	info, err := Write(dir, store, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, tbl2 := newKVStore()
	if _, _, err := Restore(info.Path, rec); err != nil {
		t.Fatal(err)
	}
	ro := rec.BeginROAt(0)
	defer ro.Release()
	tup, ok := ro.Get(tbl2, 1)
	if !ok || tbl2.Schema.GetInt64(tup, 1) != 100 {
		t.Fatalf("checkpoint leaked post-snapshot write: v=%d", tbl2.Schema.GetInt64(tup, 1))
	}
}

func TestSumAtOrderIndependence(t *testing.T) {
	a, ta := newKVStore()
	b, tb := newKVStore()
	for i := int64(1); i <= 100; i++ {
		loadKV(t, ta, i, i*3)
	}
	for i := int64(100); i >= 1; i-- { // reverse load order: scan orders differ
		loadKV(t, tb, i, i*3)
	}
	if !SumsEqual(SumAt(a, 0), SumAt(b, 0)) {
		t.Fatal("SumAt depends on load order")
	}
	// A single changed value must change the sum.
	tx := b.BeginAt(0)
	tx.Update(tb, 50, nil, func(tup []byte) { tb.Schema.PutInt64(tup, 1, -1) })
	tx.Commit()
	if SumsEqual(SumAt(a, 1), SumAt(b, 1)) {
		t.Fatal("SumAt missed a value change")
	}
}

func TestRestoreUnknownTable(t *testing.T) {
	store, tbl := newKVStore()
	loadKV(t, tbl, 1, 1)
	dir := t.TempDir()
	info, err := Write(dir, store, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A store without the table (DDL mismatch) must fail loudly.
	empty := mvcc.NewStore()
	if _, _, err := Restore(info.Path, empty); err == nil {
		t.Fatal("Restore into a store missing the table succeeded")
	}
}

// Regression guard for the frame encoding: the header frame's layout is
// [kind u8][vid u64][tableCount u32] and Verify returns the VID from it.
func TestHeaderFrameVID(t *testing.T) {
	store, tbl := newKVStore()
	loadKV(t, tbl, 1, 1)
	dir := t.TempDir()
	info, err := Write(dir, store, 0xDEADBEEF, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(info.Path)
	// magic(8) + frame hdr(8) + kind(1) → vid at offset 17.
	if got := binary.LittleEndian.Uint64(b[17:]); got != 0xDEADBEEF {
		t.Fatalf("header vid on disk = %#x", got)
	}
	vid, err := Verify(info.Path)
	if err != nil || vid != 0xDEADBEEF {
		t.Fatalf("verify: vid=%#x err=%v", vid, err)
	}
}
