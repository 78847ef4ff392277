package index

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/value"
)

func TestKeys(t *testing.T) {
	if ManifestKey("t") != "t/_index/manifest.json" {
		t.Errorf("ManifestKey = %q", ManifestKey("t"))
	}
	if Table("t", "Col") != "t/_index/col" {
		t.Errorf("Table = %q", Table("t", "Col"))
	}
	if ObjectKey("t", "c", 3) != "t/_index/c/part0003.csv" {
		t.Errorf("ObjectKey = %q", ObjectKey("t", "c", 3))
	}
	// Index keys must never collide with the data-partition listing prefix.
	if pfx := Prefix("t"); pfx == "t/part" || pfx[:6] == "t/part" {
		t.Errorf("index prefix %q collides with the partition prefix", pfx)
	}
}

func TestManifestRoundTripAndStaleness(t *testing.T) {
	m := NewManifest()
	m.Set(Entry{Name: "ix1", Column: "Price", Partitions: 2, IndexBytes: 99, DataSizes: []int64{10, 20}})
	if m.Generation != 1 {
		t.Errorf("generation after Set = %d", m.Generation)
	}
	got, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	e, ok := got.Indexes["price"] // keyed by the column's name key
	if !ok || e.Name != "ix1" || e.IndexBytes != 99 {
		t.Fatalf("entry after round trip = %+v, %v", e, ok)
	}
	if e.Stale([]int64{10, 20}) {
		t.Error("matching sizes must not be stale")
	}
	if !e.Stale([]int64{10, 21}) || !e.Stale([]int64{10}) {
		t.Error("size or count drift must mark the index stale")
	}
	if !got.Remove("PRICE") || got.Remove("price") {
		t.Error("Remove must drop exactly once, case-insensitively")
	}
	if _, err := DecodeManifest([]byte(`{"version":99}`)); err == nil {
		t.Error("unknown manifest version must be rejected")
	}
	if _, err := DecodeManifest([]byte(`not json`)); err == nil {
		t.Error("garbage manifest must be rejected")
	}
}

func TestBuildPartitionSortedWithExactRanges(t *testing.T) {
	data := csvx.Encode([]string{"k", "v"}, [][]string{
		{"1", "30"}, {"2", "7"}, {"3", "100"},
	})
	idx, err := BuildPartition(data, "v")
	if err != nil {
		t.Fatal(err)
	}
	header, rows, err := csvx.Decode(idx, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(header, Header) {
		t.Errorf("index header = %v", header)
	}
	// Sorted numerically: 7, 30, 100 (string sort would give 100, 30, 7).
	if rows[0][0] != "7" || rows[1][0] != "30" || rows[2][0] != "100" {
		t.Fatalf("index rows not value-sorted: %v", rows)
	}
	// Every recorded range must slice back to exactly the original row.
	for _, r := range rows {
		first, _ := strconv.ParseInt(r[1], 10, 64)
		last, _ := strconv.ParseInt(r[2], 10, 64)
		row := string(data[first : last+1])
		if row != "1,30" && row != "2,7" && row != "3,100" {
			t.Errorf("range [%d,%d] slices to %q", first, last, row)
		}
	}
}

func TestBuildPartitionErrors(t *testing.T) {
	if _, err := BuildPartition(nil, "v"); err == nil {
		t.Error("empty partition must fail")
	}
	data := csvx.Encode([]string{"k"}, [][]string{{"1"}})
	if _, err := BuildPartition(data, "nosuch"); err == nil {
		t.Error("missing column must fail")
	}
}

func TestCoalesce(t *testing.T) {
	// Unsorted input, overlap, adjacency (1-byte newline gap), and a gap
	// larger than the tolerance.
	in := [][2]int64{{50, 60}, {0, 9}, {11, 20}, {25, 30}, {100, 110}, {58, 70}}
	got := Coalesce(in, 4)
	want := [][2]int64{{0, 30}, {50, 70}, {100, 110}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Coalesce = %v, want %v", got, want)
	}
	if Coalesce(nil, 4) != nil {
		t.Error("empty input must coalesce to nil")
	}
	// gap 0 still merges strictly adjacent ranges ([a,b] + [b+1,c]).
	got = Coalesce([][2]int64{{0, 4}, {5, 9}, {11, 12}}, 0)
	want = [][2]int64{{0, 9}, {11, 12}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Coalesce(gap 0) = %v, want %v", got, want)
	}
}

func TestBatches(t *testing.T) {
	ranges := make([][2]int64, 10)
	for i := range ranges {
		ranges[i] = [2]int64{int64(i * 10), int64(i*10 + 5)}
	}
	b := Batches(ranges, 4)
	if len(b) != 3 || len(b[0]) != 4 || len(b[2]) != 2 {
		t.Errorf("Batches sizes = %v", []int{len(b[0]), len(b[1]), len(b[2])})
	}
	if len(Batches(nil, 4)) != 0 {
		t.Error("no ranges, no batches")
	}
	if got := Batches(ranges, 0); len(got) != 1 {
		t.Errorf("default cap should hold all 10 ranges in one batch, got %d", len(got))
	}
}

// FuzzManifestDecode feeds arbitrary bytes to the manifest decoder: it must
// not panic, and a manifest it accepts re-encodes to bytes that decode to
// an equal manifest.
func FuzzManifestDecode(f *testing.F) {
	m := NewManifest()
	m.Set(Entry{Name: "ix1", Column: "Price", Partitions: 2, IndexBytes: 99, DataSizes: []int64{10, 20}})
	f.Add(m.Encode())
	f.Add(NewManifest().Encode())
	f.Add([]byte(`{"version":1,"indexes":null}`))
	f.Add([]byte(`{"version":1,"indexes":{"a":{"data_sizes":null},"a":{"name":"\ud800"}}}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		again, err := DecodeManifest(m.Encode())
		if err != nil {
			t.Fatalf("the re-encoded manifest %q does not decode: %v", m.Encode(), err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the manifest:\n%+v\n%+v", m, again)
		}
	})
}

// FuzzParseRanges feeds arbitrary rows — lines of comma-separated cells,
// typed as a response's decode types them (value.FromCSV) — to the index
// probe's range parser: it must not panic, and it returns ranges, one per
// row in order, exactly when every row is two cells strconv reads as
// integers.
func FuzzParseRanges(f *testing.F) {
	f.Add("0,10\n11,25")
	f.Add("5,5")
	f.Add("")
	f.Add("1,2,3")
	f.Add("x,1\n2,3")
	f.Add("-0,+7\n9223372036854775807,9223372036854775808")
	f.Fuzz(func(t *testing.T, text string) {
		var rows [][]string
		var typed [][]value.Value
		if text != "" {
			for _, line := range strings.Split(text, "\n") {
				rows = append(rows, strings.Split(line, ","))
				typed = append(typed, nil)
				for _, cell := range rows[len(rows)-1] {
					typed[len(typed)-1] = append(typed[len(typed)-1], value.FromCSV(cell))
				}
			}
		}
		ranges, err := ParseRanges(typed)
		var want [][2]int64
		for _, r := range rows {
			if len(r) != 2 {
				want = nil
				break
			}
			first, err1 := strconv.ParseInt(r[0], 10, 64)
			last, err2 := strconv.ParseInt(r[1], 10, 64)
			if err1 != nil || err2 != nil {
				want = nil
				break
			}
			want = append(want, [2]int64{first, last})
		}
		twoInts := len(want) == len(rows)
		switch {
		case twoInts && err != nil:
			t.Fatalf("rows %q of two integers each: %v", rows, err)
		case !twoInts && err == nil:
			t.Fatalf("rows %q parsed to %v; want an error", rows, ranges)
		case twoInts && !slices.Equal(ranges, want):
			t.Fatalf("rows %q parsed to %v; want %v", rows, ranges, want)
		}
	})
}
