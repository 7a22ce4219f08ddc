package trace

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Error("different seeds should differ")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(2.0)
	}
	mean := sum / float64(n)
	if mean < 1.9 || mean > 2.1 {
		t.Errorf("exp mean = %v, want ~2.0", mean)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}
