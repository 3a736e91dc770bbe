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
	f.Add(ingest.EncodeChunk(7, itemRows(schema, 0, 1)))
	f.Add(ingest.EncodeChunk(7, itemRows(schema, 100, 5)))
	f.Add(ingest.EncodeChunk(300, [][]byte{{1}, {2}, {3}}))
	// No flag is defined, so a nonzero flags byte must be rejected.
	flagged := ingest.EncodeChunk(7, itemRows(schema, 100, 5))
	flagged[0] = 0x01
	f.Add(flagged)
	f.Fuzz(func(t *testing.T, args []byte) {
		table, rows, err := ingest.DecodeChunk(args)
		if err != nil {
			return
		}
		if again := ingest.EncodeChunk(table, rows); !bytes.Equal(again, args) {
			t.Fatalf("DecodeChunk accepted %x, which encodes back as %x", args, again)
		}
	})
}
