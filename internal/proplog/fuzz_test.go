package proplog

import (
	"bytes"
	"testing"
)

// FuzzDecode holds Decode to what its doc promises a receiver that takes
// bytes off the network: it never panics whatever the bytes, and what it
// accepts is exactly what AppendEncode writes for the batch it returns.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 15s ./internal/proplog/
func FuzzDecode(f *testing.F) {
	empty := NewBuffer(0).Take()
	single := NewBuffer(2)
	single.Add(7, Entry{VID: 10, Kind: Insert, Key: 1, Size: 4, Data: []byte{1, 2, 3, 4}})
	single.Add(7, Entry{VID: 11, Kind: Update, Key: 1, Offset: 2, Size: 1, Data: []byte{9}})
	single.Add(7, Entry{VID: 12, Kind: Delete, Key: 1})
	multi := NewBuffer(5)
	multi.Add(1, Entry{VID: 20, Kind: Insert, Key: 3, Size: 2, Data: []byte{5, 6}})
	multi.Add(2, Entry{VID: 20, Kind: Update, Key: 8, Offset: 8, Size: 3, Data: []byte{7, 8, 9}})
	multi.Add(1, Entry{VID: 21, Kind: Delete, Key: 3})
	multi.Add(300, Entry{VID: 22, Kind: Insert, Key: 4})
	for _, b := range []Batch{empty, single.Take(), multi.Take()} {
		f.Add(AppendEncode(nil, &b))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		b, err := Decode(buf)
		if err != nil {
			return
		}
		if again := AppendEncode(nil, &b); !bytes.Equal(again, buf) {
			t.Fatalf("Decode accepted %x, which encodes back as %x", buf, again)
		}
	})
}
