package ingest_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"batchdb/internal/ingest"
	"batchdb/internal/mvcc"
	"batchdb/internal/obs"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
)

func itemSchema() *storage.Schema {
	return storage.NewSchema(7, "item", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "val", Type: storage.Int64},
	}, []int{0})
}

func itemRows(schema *storage.Schema, start, n int) [][]byte {
	rows := make([][]byte, n)
	for i := range rows {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, int64(start+i))
		schema.PutInt64(tup, 1, int64(start+i)*3)
		rows[i] = tup
	}
	return rows
}

// newItemEngine builds a started engine with the item table and the
// ingest procedure installed.
func newItemEngine(t *testing.T, schema *storage.Schema) (*oltp.Engine, *mvcc.Table) {
	t.Helper()
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 1024)
	e, err := oltp.New(store, oltp.Config{Workers: 2, PushPeriod: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ingest.RegisterProc(e)
	e.Start()
	t.Cleanup(func() { e.Close() })
	return e, tbl
}

func TestChunkRoundTrip(t *testing.T) {
	schema := itemSchema()
	rows := itemRows(schema, 100, 17)
	tid, got, err := ingest.DecodeChunk(ingest.EncodeChunk(7, rows))
	if err != nil {
		t.Fatal(err)
	}
	if tid != 7 || len(got) != len(rows) {
		t.Fatalf("decode: table=%d rows=%d", tid, len(got))
	}
	for i := range rows {
		if string(got[i]) != string(rows[i]) {
			t.Fatalf("row %d mismatch", i)
		}
	}
	withFlags := func(flags byte) []byte {
		args := ingest.EncodeChunk(7, rows)
		args[0] = flags
		return args
	}
	for _, tc := range []struct {
		name string
		args []byte
	}{
		{"nil", nil},
		{"short header", []byte{1, 2, 3}},
		{"torn body", ingest.EncodeChunk(7, rows)[:20]},
		{"flag bit 0", withFlags(0x01)},
		{"flag bit 1", withFlags(1 << 1)},
		{"flag bit 7", withFlags(1 << 7)},
		{"bits 0 and 3", withFlags(1 | 1<<3)},
		{"all flags", withFlags(0xff)},
	} {
		if _, _, err := ingest.DecodeChunk(tc.args); !errors.Is(err, ingest.ErrBadChunk) {
			t.Fatalf("decode(%s, %d bytes): want ErrBadChunk, got %v", tc.name, len(tc.args), err)
		}
	}
}

// TestLoaderLoadsRows loads a stream in chunks and verifies the exact
// contents.
func TestLoaderLoadsRows(t *testing.T) {
	schema := itemSchema()
	e, tbl := newItemEngine(t, schema)
	const n = 10_000
	rows := itemRows(schema, 0, n)

	l := ingest.NewLoader(e, schema.ID, ingest.Config{
		ChunkRows:       512,
		DisableGovernor: true,
	})
	rep, err := l.Load(ingest.SliceSource(rows))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != n || rep.Chunks != (n+511)/512 {
		t.Fatalf("report: %d rows in %d chunks", rep.Rows, rep.Chunks)
	}
	if rep.FirstVID == 0 || rep.LastVID < rep.FirstVID {
		t.Fatalf("VID range [%d, %d]", rep.FirstVID, rep.LastVID)
	}

	tx := e.Store().BeginRO()
	defer tx.Abort()
	for i := 0; i < n; i++ {
		tup, ok := tx.Get(tbl, uint64(i))
		if !ok {
			t.Fatalf("row %d missing", i)
		}
		if v := schema.GetInt64(tup, 1); v != int64(i)*3 {
			t.Fatalf("row %d: val %d", i, v)
		}
	}
	if _, ok := tx.Get(tbl, uint64(n)); ok {
		t.Fatal("phantom row past the stream")
	}
}

// TestLoaderMetrics: the loader's counters land in an obs registry and
// reflect a completed load.
func TestLoaderMetrics(t *testing.T) {
	schema := itemSchema()
	e, _ := newItemEngine(t, schema)
	l := ingest.NewLoader(e, schema.ID, ingest.Config{ChunkRows: 100, DisableGovernor: true})
	reg := obs.NewRegistry()
	l.RegisterMetrics(reg)
	if _, err := l.Load(ingest.SliceSource(itemRows(schema, 0, 250))); err != nil {
		t.Fatal(err)
	}
	line := reg.RenderLine()
	for _, want := range []string{
		"batchdb_ingest_rows_total=250",
		"batchdb_ingest_chunks_total=3",
		"batchdb_ingest_retries_total=0",
		"batchdb_ingest_throttles_total=0",
		"batchdb_ingest_rate_chunks_per_sec",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("registry missing %q in %q", want, line)
		}
	}
}

// TestLoaderChunkAtomicity: a chunk with a key colliding with a
// resident row fails whole — none of its other rows become visible —
// while previously acked chunks stay.
func TestLoaderChunkAtomicity(t *testing.T) {
	schema := itemSchema()
	e, tbl := newItemEngine(t, schema)

	l := ingest.NewLoader(e, schema.ID, ingest.Config{ChunkRows: 100, DisableGovernor: true})
	if _, err := l.Load(ingest.SliceSource(itemRows(schema, 0, 100))); err != nil {
		t.Fatal(err)
	}

	// Second load: first chunk clean, second chunk collides on key 50.
	rows := itemRows(schema, 1000, 100)
	rows = append(rows, itemRows(schema, 50, 1)...)    // duplicate
	rows = append(rows, itemRows(schema, 2000, 98)...) // would ride in the same chunk
	var acked []ingest.ChunkAck
	l2 := ingest.NewLoader(e, schema.ID, ingest.Config{
		ChunkRows: 100, DisableGovernor: true,
		OnChunk: func(a ingest.ChunkAck) { acked = append(acked, a) },
	})
	rep, err := l2.Load(ingest.SliceSource(rows))
	if !errors.Is(err, mvcc.ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
	if rep.Chunks != 1 || len(acked) != 1 {
		t.Fatalf("acked %d chunks (report %d)", len(acked), rep.Chunks)
	}

	tx := e.Store().BeginRO()
	defer tx.Abort()
	for i := 1000; i < 1100; i++ { // acked chunk present
		if _, ok := tx.Get(tbl, uint64(i)); !ok {
			t.Fatalf("acked row %d missing", i)
		}
	}
	for i := 2000; i < 2098; i++ { // failed chunk fully absent
		if _, ok := tx.Get(tbl, uint64(i)); ok {
			t.Fatalf("row %d from failed chunk leaked", i)
		}
	}
	if tup, _ := tx.Get(tbl, 50); schema.GetInt64(tup, 1) != 150 {
		t.Fatal("resident row clobbered by failed chunk")
	}
}
