package experiments

import (
	"strings"
	"sync"
	"testing"
)

// matrix is the E6 table the tests share, so each (context, stack) system
// is built once per test binary.
var matrix = sync.OnceValue(func() *Table { return E6TheoremMatrix(0) })

// TestTheoremMatrix pins every cell of the theorem matrix, the reported
// n−t = 1 and crash cells as much as the gated ones: runs, implements,
// safety, Thm 7.5, spec, the largest nonfaulty decision round for f =
// 0/1/2, and the runs over min(f+2, t+2).
func TestTheoremMatrix(t *testing.T) {
	want := map[string]string{
		"SO n2 t1/min":         "68 2 0 - 0 3 3 - 3",
		"SO n2 t1/basic":       "68 2 0 - 0 2 3 - 0",
		"SO n2 t1/fip":         "68 0 10 0 0 2 2 - 0",
		"SO n2 t1/fip-nock":    "68 0 10 0 0 2 2 - 0",
		"SO n2 t1/fip+pmin":    "68 - 10 26 0 3 3 - 3",
		"SO n3 t1/min":         "1544 0 0 - 0 3 3 - 4",
		"SO n3 t1/basic":       "1544 0 0 - 0 2 3 - 0",
		"SO n3 t1/fip":         "1544 0 132 0 0 2 3 - 0",
		"SO n3 t1/fip-nock":    "1544 0 132 0 0 2 3 - 0",
		"SO n3 t1/fip+pmin":    "1544 - 132 195 0 3 3 - 4",
		"SO n4 t1/min":         "32784 0 0 - 0 3 3 - 5",
		"SO n4 t1/basic":       "32784 0 0 - 0 2 3 - 0",
		"SO n4 t1/fip":         "32784 0 1104 0 0 2 3 - 0",
		"SO n4 t1/fip-nock":    "32784 0 1104 0 0 2 3 - 0",
		"SO n4 t1/fip+pmin":    "32784 - 1104 3076 0 3 3 - 5",
		"crash n3 t1/min":      "248 0 0 - 0 3 3 - 4",
		"crash n3 t1/basic":    "248 0 0 - 0 2 3 - 0",
		"crash n3 t1/fip":      "248 0 0 0 0 2 3 - 0",
		"crash n3 t1/fip-nock": "248 0 0 0 0 2 3 - 0",
		"crash n3 t1/fip+pmin": "248 - 0 51 0 3 3 - 4",
		"crash n3 t2/min":      "4376 3 0 - 0 4 4 4 124",
		"crash n3 t2/basic":    "4376 3 48 - 0 2 3 4 0",
		"crash n3 t2/fip":      "4376 3 48 48 0 2 3 3 0",
		"crash n3 t2/fip-nock": "4376 0 48 48 0 2 3 3 0",
		"crash n3 t2/fip+pmin": "4376 - 48 1194 0 4 4 4 124",
		"crash n4 t2/min":      "82608 0 0 - 0 4 4 4 475",
		"crash n4 t2/basic":    "82608 0 0 - 0 2 3 4 0",
		"crash n4 t2/fip":      "82608 0 0 0 0 2 3 4 0",
		"crash n4 t2/fip-nock": "82608 60 0 576 0 2 3 4 0",
		"crash n4 t2/fip+pmin": "82608 - 0 18788 0 4 4 4 475",
	}
	tb := matrix()
	if !tb.Pass {
		t.Errorf("E6 failed:\n%s", tb.Render())
	}
	if len(tb.Rows) != len(want) {
		t.Errorf("E6 rows = %d, want %d", len(tb.Rows), len(want))
	}
	for _, row := range tb.Rows {
		cell := row[0] + "/" + row[1]
		if got := strings.Join(row[2:], " "); got != want[cell] {
			t.Errorf("%s: got %q, want %q", cell, got, want[cell])
		}
	}
}
