package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointVerify feeds Verify checkpoint files whose frames carry
// a correct length and CRC32, so the fuzzer reaches the frame decoder
// instead of stopping at the checksum. The input is a sequence of frame
// bodies, each behind a 2-byte little-endian length (a length past the
// end takes what is left). Verify must not panic, and every error it
// returns must wrap ErrInvalid.
func FuzzCheckpointVerify(f *testing.F) {
	// Small seeds: the fuzzer minimises every input that finds new
	// coverage, one Verify per byte it tries to drop.
	store, tbl := newKVStore()
	for rows := int64(0); rows <= 3; rows += 3 {
		for i := int64(1); i <= rows; i++ {
			loadKV(f, tbl, i, i*10)
		}
		info, err := Write(f.TempDir(), store, uint64(rows), nil)
		if err != nil {
			f.Fatal(err)
		}
		file, err := os.ReadFile(info.Path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(splitFrames(f, file))
	}
	f.Add([]byte{})

	path := filepath.Join(f.TempDir(), "fuzz.ck")
	f.Fuzz(func(t *testing.T, in []byte) {
		file := []byte(fileMagic)
		for len(in) >= 2 {
			n := int(binary.LittleEndian.Uint16(in))
			in = in[2:]
			n = min(n, len(in))
			body := in[:n]
			in = in[n:]
			file = binary.LittleEndian.AppendUint32(file, uint32(len(body)))
			file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(body, crcTable))
			file = append(file, body...)
		}
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(path); err != nil && !errors.Is(err, ErrInvalid) {
			t.Fatalf("Verify = %v, want nil or ErrInvalid", err)
		}
	})
}

// splitFrames turns a checkpoint file into the fuzz input that
// reproduces it: each frame body behind its 2-byte length.
func splitFrames(f *testing.F, file []byte) []byte {
	var out []byte
	p := file[len(fileMagic):]
	for len(p) > 0 {
		n := binary.LittleEndian.Uint32(p)
		if n > 0xFFFF {
			f.Fatalf("frame of %d bytes does not fit the fuzz encoding", n)
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(n))
		out = append(out, p[8:8+n]...)
		p = p[8+n:]
	}
	return out
}
