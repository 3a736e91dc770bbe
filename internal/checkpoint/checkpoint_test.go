package checkpoint

import (
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"testing"

	"batchdb/internal/mvcc"
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
	if _, err := tbl.LoadRow(tup); err != nil {
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

func TestRestorePreservesRowIDs(t *testing.T) {
	store, tbl := newKVStore()
	for i := int64(1); i <= 50; i++ {
		loadKV(t, tbl, i, i)
	}
	want := map[uint64]uint64{} // key -> RowID
	ro := store.BeginROAt(0)
	tbl.ScanChains(func(c *mvcc.Chain) bool {
		if r := ro.ReadChain(c); r != nil {
			want[c.Key] = r.RowID
		}
		return true
	})
	ro.Release()

	dir := t.TempDir()
	info, err := Write(dir, store, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, tbl2 := newKVStore()
	if _, _, err := Restore(info.Path, rec); err != nil {
		t.Fatal(err)
	}
	ro2 := rec.BeginROAt(0)
	defer ro2.Release()
	tbl2.ScanChains(func(c *mvcc.Chain) bool {
		r := ro2.ReadChain(c)
		if r == nil {
			t.Errorf("key %d missing", c.Key)
			return true
		}
		if r.RowID != want[c.Key] {
			t.Errorf("key %d: RowID %d, want %d", c.Key, r.RowID, want[c.Key])
		}
		return true
	})
	// The allocator must be past the largest restored RowID.
	var max uint64
	for _, id := range want {
		if id > max {
			max = id
		}
	}
	if got := tbl2.AllocRowID(); got <= max {
		t.Fatalf("AllocRowID after restore = %d, must exceed %d", got, max)
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
	for i := int64(100); i >= 1; i-- { // reverse load order: RowIDs differ
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
