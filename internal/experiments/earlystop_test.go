package experiments

import (
	"slices"
	"testing"
)

func TestE20EarlyStopping(t *testing.T) {
	tb := E20EarlyStopping(7, 60, 0)
	if !tb.Pass {
		t.Fatalf("E20 failed:\n%s", tb.Render())
	}
	if len(tb.Rows) != 4 {
		t.Errorf("E20 rows = %d, want 4", len(tb.Rows))
	}
}

// TestEarlyStopping reads the theorem matrix's "runs over" column: Pbasic,
// Popt and Popt-nock have no run in which a nonfaulty agent decides after
// round min(f+2, t+2), and Pmin's runs past it are pinned — the same over
// Emin and over Efip, and for Pnaive, which decides 1 at time t+1 as Pmin
// does. The random rows' gate is E20's own verdict, which
// TestE20EarlyStopping checks.
func TestEarlyStopping(t *testing.T) {
	pminOver := map[string]string{
		"SO n2 t1": "3", "SO n3 t1": "4", "SO n4 t1": "5",
		"crash n3 t1": "4", "crash n3 t2": "124", "crash n4 t2": "475",
	}
	tb := matrix()
	col := slices.Index(tb.Columns, "runs over min(f+2,t+2)")
	for _, row := range tb.Rows {
		context, stack, over := row[0], row[1], row[col]
		t.Run(context+"/"+stack, func(t *testing.T) {
			want := "0"
			if stack == "min" || stack == "fip+pmin" || stack == "naive" {
				want = pminOver[context]
			}
			if over != want {
				t.Errorf("%s runs in which a nonfaulty agent decides after round min(f+2, t+2), want %s", over, want)
			}
		})
	}
}
