package accuracy

import (
	"testing"

	"repro/internal/convex"
	"repro/internal/sample"
)

func TestRandomPool(t *testing.T) {
	pool := []convex.Loss{linQuery(t, 0), linQuery(t, 1), linQuery(t, 2)}
	adv := &RandomPool{Pool: pool, Src: sample.New(1), Max: 10}
	var history []Exchange
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		l, ok := adv.Next(history)
		if !ok {
			t.Fatalf("adversary quit at %d", i)
		}
		seen[l.Name()] = true
		history = append(history, Exchange{Loss: l})
	}
	if _, ok := adv.Next(history); ok {
		t.Error("adversary exceeded Max")
	}
	if len(seen) < 2 {
		t.Errorf("random pool drew only %d distinct queries over 10 draws", len(seen))
	}
	// Max = 0 defaults to pool length.
	adv2 := &RandomPool{Pool: pool, Src: sample.New(2)}
	var h2 []Exchange
	for i := 0; i < 3; i++ {
		l, ok := adv2.Next(h2)
		if !ok {
			t.Fatalf("default-max adversary quit at %d", i)
		}
		h2 = append(h2, Exchange{Loss: l})
	}
	if _, ok := adv2.Next(h2); ok {
		t.Error("default-max adversary exceeded pool size")
	}
	// Empty pool quits immediately.
	empty := &RandomPool{Src: sample.New(3)}
	if _, ok := empty.Next(nil); ok {
		t.Error("empty pool produced a query")
	}
}
