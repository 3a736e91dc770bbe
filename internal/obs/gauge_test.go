package obs

import (
	"sync"
	"testing"
)

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Load() != 0 {
		t.Fatalf("zero gauge = %d", g.Load())
	}
	g.Set(5)
	g.Add(3)
	g.Add(-10)
	if g.Load() != -2 {
		t.Fatalf("gauge = %d, want -2", g.Load())
	}
	g.Set(0)

	// Balanced concurrent Add(+1)/Add(-1) pairs must cancel out.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Load() != 0 {
		t.Fatalf("unbalanced concurrent gauge = %d", g.Load())
	}
}
