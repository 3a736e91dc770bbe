package ingest_test

import (
	"bytes"
	"testing"

	"batchdb/internal/ingest"
)

// FuzzDecodeChunk holds DecodeChunk — which reads chunk args from
// clients and from WAL replay — to two rules: it never panics, and
// whatever it accepts re-encodes through EncodeChunk to the same bytes.
func FuzzDecodeChunk(f *testing.F) {
	schema := itemSchema()
	f.Add(ingest.EncodeChunk(7, itemRows(schema, 0, 1), true))
	f.Add(ingest.EncodeChunk(7, itemRows(schema, 100, 5), false))
	f.Add(ingest.EncodeChunk(300, [][]byte{{1}, {2}, {3}}, true))
	f.Fuzz(func(t *testing.T, args []byte) {
		table, rows, grouped, err := ingest.DecodeChunk(args)
		if err != nil {
			return
		}
		if again := ingest.EncodeChunk(table, rows, grouped); !bytes.Equal(again, args) {
			t.Fatalf("DecodeChunk accepted %x, which encodes back as %x", args, again)
		}
	})
}
