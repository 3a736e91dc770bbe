package network

import "sync"

// Frame-buffer pool for send-side payload encoding.
//
// Propagation frames — update pushes and sync replies — are
// append-encoded into a scratch buffer and handed to Conn.Send, which
// never retains the payload past its return (it writes and flushes the
// frame before returning). That lifetime makes the buffers poolable:
// callers draw from GetFrameBuf, encode, Send, and give the buffer back
// with PutFrameBuf, so steady-state pushes stop allocating per frame.
var frameBufs sync.Pool

// GetFrameBuf returns an empty buffer with whatever capacity a previous
// frame left behind. Append-encode into it; pass the result to
// PutFrameBuf once the frame is sent.
func GetFrameBuf() []byte {
	if b, ok := frameBufs.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return make([]byte, 0, 4096)
}

// PutFrameBuf recycles a buffer obtained from GetFrameBuf (any
// append-grown capacity rides along). Safe for buffers that did not
// come from the pool; the next GetFrameBuf reuses them all the same.
func PutFrameBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	frameBufs.Put(&b)
}
