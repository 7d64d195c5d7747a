package experiments

import (
	"strings"
	"sync"
	"testing"
)

// e20 is the E20 table the tests share, so the exhaustive contexts are
// swept once per test binary.
var e20 = sync.OnceValue(func() *Table { return E20EarlyStopping(7, 60, 0) })

func TestE20EarlyStopping(t *testing.T) {
	tb := e20()
	if !tb.Pass {
		t.Fatalf("E20 failed:\n%s", tb.Render())
	}
	if len(tb.Rows) != 20 {
		t.Errorf("E20 rows = %d, want 20", len(tb.Rows))
	}
}

// TestEarlyStopping reads E20's exhaustive rows: Pbasic, Popt and
// Popt-nock have no run in which a nonfaulty agent decides after round
// min(f+2, t+2), and Pmin's runs past it are pinned. The random rows'
// gate is the table's own verdict, which TestE20EarlyStopping checks.
func TestEarlyStopping(t *testing.T) {
	minOver := map[string]string{"SO n3 t1": "4", "SO n4 t1": "5", "crash n3 t2": "124", "crash n4 t2": "475"}
	for _, row := range e20().Rows {
		context, stack, over := row[0], row[1], row[6]
		if strings.HasPrefix(context, "random") {
			continue
		}
		t.Run(context+"/"+stack, func(t *testing.T) {
			want := "0"
			if stack == "min" {
				want = minOver[context]
			}
			if over != want {
				t.Errorf("%s runs in which a nonfaulty agent decides after round min(f+2, t+2), want %s", over, want)
			}
		})
	}
}
