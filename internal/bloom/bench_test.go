package bloom

import (
	"math/rand"
	"testing"

	"pushdowndb/internal/sqlparse"
)

func BenchmarkAdd(b *testing.B) {
	f := New(1<<20, 0.01, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(int64(i))
	}
}

func BenchmarkContains(b *testing.B) {
	f := New(1<<16, 0.01, rand.New(rand.NewSource(1)))
	for i := int64(0); i < 1<<16; i++ {
		f.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(int64(i))
	}
}

func BenchmarkSQLPredicate(b *testing.B) {
	f := New(4096, 0.01, rand.New(rand.NewSource(1)))
	for i := int64(0); i < 4096; i++ {
		f.Add(i)
	}
	key := &sqlparse.Column{Name: "o_custkey"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.SQLPredicate(key).String()
	}
}

func BenchmarkFitWithDegradation(b *testing.B) {
	keys := make([]int64, 50000)
	for i := range keys {
		keys[i] = int64(i)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := Fit(keys, 0.0001, &sqlparse.Column{Name: "k"}, 256*1024, rng); !ok {
			b.Fatal("fit failed")
		}
	}
}
