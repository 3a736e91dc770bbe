package vid

import "testing"

func TestStartAt(t *testing.T) {
	a := NewAllocator()
	for i := 0; i < 5; i++ {
		a.Publish(a.Allocate())
	}
	if a.Watermark() != 5 {
		t.Fatalf("watermark = %d", a.Watermark())
	}
	// Leave a hole so the published map is non-empty...
	a.Allocate() // 6, never published
	a.Publish(a.Allocate() /* 7 */)
	// ...then reposition, as checkpoint restore does.
	a.StartAt(42)
	if a.Watermark() != 42 {
		t.Fatalf("after StartAt: watermark=%d", a.Watermark())
	}
	// The dense sequence resumes at base+1 and the stale published entry
	// (7) must not let the watermark jump a hole.
	v := a.Allocate()
	if v != 43 {
		t.Fatalf("first VID after StartAt = %d", v)
	}
	a.Publish(v)
	if a.Watermark() != 43 {
		t.Fatalf("watermark after publish = %d", a.Watermark())
	}
	w := a.Allocate() // 44, unpublished
	_ = w
	x := a.Allocate() // 45
	a.Publish(x)
	if a.Watermark() != 43 {
		t.Fatalf("watermark advanced over the hole: %d", a.Watermark())
	}
	a.Publish(44)
	if a.Watermark() != 45 {
		t.Fatalf("watermark = %d, want 45", a.Watermark())
	}
}
