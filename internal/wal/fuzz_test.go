package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode holds decode — which reads every record body replay and
// OpenAppend meet on disk — to two rules: it never panics, and whatever
// it accepts equals encodeBody of the record it returned.
func FuzzWALDecode(f *testing.F) {
	for _, r := range []Record{
		{},
		{CommitVID: 1, ReadVID: 0, Proc: "transfer", Args: []byte{1, 2, 3, 4}},
		{CommitVID: 1 << 40, ReadVID: 1<<40 - 1, Proc: "batchdb.ingest", Args: bytes.Repeat([]byte{9}, 64)},
	} {
		f.Add(encodeBody(nil, r))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := decode(body)
		if err != nil {
			return
		}
		if again := encodeBody(nil, r); !bytes.Equal(again, body) {
			t.Fatalf("decode accepted %x, which encodes back as %x", body, again)
		}
	})
}
