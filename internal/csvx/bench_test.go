package csvx

import (
	"fmt"
	"testing"
)

func benchData(rows int) []byte {
	data := make([][]string, rows)
	for i := range data {
		data[i] = []string{
			fmt.Sprint(i), "some,quoted", fmt.Sprintf("%.4f", float64(i)*1.5),
			"plain-text-field",
		}
	}
	return Encode([]string{"a", "b", "c", "d"}, data)
}

// plainData is benchData without the quoted field: every row takes the
// index-only path, as TPC-H rows do.
func plainData(rows int) []byte {
	data := make([][]string, rows)
	for i := range data {
		data[i] = []string{
			fmt.Sprint(i), "1994-01-01", fmt.Sprintf("%.4f", float64(i)*1.5),
			"plain-text-field",
		}
	}
	return Encode([]string{"a", "b", "c", "d"}, data)
}

func BenchmarkScan(b *testing.B) {
	b.Run("quoted", func(b *testing.B) { benchScan(b, benchData(10000)) })
	b.Run("plain", func(b *testing.B) { benchScan(b, plainData(10000)) })
}

func benchScan(b *testing.B, data []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(data)
		n := 0
		for sc.Scan() {
			n += len(sc.Fields())
		}
		if sc.Err() != nil {
			b.Fatal(sc.Err())
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rows := make([][]string, 10000)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i), "x", "1.5"}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode([]string{"a", "b", "c"}, rows)
	}
}

func BenchmarkRowRanges(b *testing.B) {
	data := benchData(10000)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RowRanges(data, true); err != nil {
			b.Fatal(err)
		}
	}
}
