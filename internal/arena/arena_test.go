package arena

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"pushdowndb/internal/race"
)

// TestTextStringsAreOwnedAndNeverMove: a string handed out is a copy of
// its bytes, and no later call moves or rewrites it.
func TestTextStringsAreOwnedAndNeverMove(t *testing.T) {
	var text Text
	var got []string
	var at []*byte
	buf := make([]byte, 0, 64)
	for i := 0; i < 5000; i++ {
		buf = fmt.Appendf(buf[:0], "row %d %s", i, strings.Repeat("x", i%40))
		s := text.String(buf)
		got, at = append(got, s), append(at, unsafe.StringData(s))
		for j := range buf {
			buf[j] = '!' // the caller's buffer is the caller's again
		}
	}
	for i, s := range got {
		if want := fmt.Sprintf("row %d %s", i, strings.Repeat("x", i%40)); s != want || unsafe.StringData(s) != at[i] {
			t.Fatalf("string %d is %q (moved: %v), want %q", i, s, unsafe.StringData(s) != at[i], want)
		}
	}
	if text.String(nil) != "" || unsafe.StringData(text.String(nil)) != nil {
		t.Error("the empty string should pin no chunk")
	}
	big := strings.Repeat("y", 3*maxTextChunk)
	if s := text.String([]byte(big)); s != big {
		t.Error("a string larger than a chunk came back changed")
	}
}

// TestChunksGrowFromTheFirstRequest: the first chunk fits the first
// request (so a one-row response keeps little more than the row), later
// ones double up to the cap (so a response costs O(bytes/chunk) allocations).
func TestChunksGrowFromTheFirstRequest(t *testing.T) {
	var text Text
	text.String(make([]byte, 40))
	if c := text.chunk.Cap(); c < 40 || c > 64 {
		t.Errorf("first text chunk holds %d bytes for a 40-byte row", c)
	}
	var slab Slab[string]
	slab.Make(4)
	if len(slab.free) != 0 || slab.size != 4 {
		t.Errorf("first array has %d elements (%d free) for a 4-cell row", slab.size, len(slab.free))
	}
	for i := 0; i < 100_000; i++ {
		text.String(make([]byte, 40))
		slab.Make(4)
	}
	if text.chunk.Cap() != maxTextChunk || slab.size != maxSlabChunk {
		t.Errorf("chunks grew to %d bytes and %d elements, want the caps %d and %d", text.chunk.Cap(), slab.size, maxTextChunk, maxSlabChunk)
	}
	if race.Enabled {
		return // allocation counts differ under the race detector
	}
	if n := testing.AllocsPerRun(5, func() {
		var text Text
		var slab Slab[string]
		for i := 0; i < 100_000; i++ {
			text.String(make([]byte, 40)) // stays on the stack
			slab.Make(4)
		}
	}); n > 100_000*40/maxTextChunk+100_000*4/maxSlabChunk+40 {
		t.Errorf("100k rows cost %v allocations", n)
	}
}

// TestSlabWindows: windows are zeroed, disjoint, exactly as long as asked
// with no spare capacity, and Grow makes a known total one array.
func TestSlabWindows(t *testing.T) {
	var slab Slab[int]
	slab.Grow(1000)
	first := slab.Make(10)
	for i := 1; i < 100; i++ {
		w := slab.Make(10)
		if len(w) != 10 || cap(w) != 10 {
			t.Fatalf("window %d: len %d cap %d", i, len(w), cap(w))
		}
		for j := range w {
			if w[j] != 0 {
				t.Fatalf("window %d is not zeroed", i)
			}
			w[j] = i
		}
		if grown := append(w, -1); &grown[0] == &w[0] {
			t.Fatalf("append to window %d grew in place", i)
		}
	}
	if slab.size != 1000 || len(slab.free) != 0 {
		t.Errorf("Grow(1000) then 1000 elements: array of %d, %d free", slab.size, len(slab.free))
	}
	for j, v := range first {
		if v != 0 {
			t.Fatalf("first[%d] = %d: a later window overlapped it", j, v)
		}
	}
	if w := slab.Make(0); w == nil || len(w) != 0 {
		t.Errorf("Make(0) = %v, want empty and non-nil like make's", w)
	}
	if w := slab.Make(5000); len(w) != 5000 {
		t.Errorf("a window larger than the cap has %d elements", len(w))
	}
}
