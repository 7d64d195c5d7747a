package experiments

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:      "EX",
		Title:   "demo",
		Claim:   "claim",
		Columns: []string{"a", "b"},
		Pass:    true,
		Notes:   []string{"a note"},
	}
	tb.AddRow(1, "two")
	s := tb.Render()
	for _, want := range []string{"EX", "demo", "PASS", "claim", "a note", "two"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	tb.Pass = false
	if !strings.Contains(tb.Render(), "FAIL") {
		t.Error("failed table should render FAIL")
	}
}

func TestE1MessageComplexity(t *testing.T) {
	tb := E1MessageComplexity()
	if !tb.Pass {
		t.Fatalf("E1 failed:\n%s", tb.Render())
	}
	if len(tb.Rows) != 10 {
		t.Errorf("E1 rows = %d, want 10", len(tb.Rows))
	}
}

func TestE2FailureFreeZero(t *testing.T) {
	if tb := E2FailureFreeZero(); !tb.Pass {
		t.Fatalf("E2 failed:\n%s", tb.Render())
	}
}

func TestE3FailureFreeOnes(t *testing.T) {
	if tb := E3FailureFreeOnes(); !tb.Pass {
		t.Fatalf("E3 failed:\n%s", tb.Render())
	}
}

func TestE4Example71(t *testing.T) {
	if tb := E4Example71(); !tb.Pass {
		t.Fatalf("E4 failed:\n%s", tb.Render())
	}
}

func TestE11BasicVsMin(t *testing.T) {
	if tb := E11BasicVsMin(); !tb.Pass {
		t.Fatalf("E11 failed:\n%s", tb.Render())
	}
}

func TestE12BasicVsFip(t *testing.T) {
	if tb := E12BasicVsFip(7, 40, 2); !tb.Pass {
		t.Fatalf("E12 failed:\n%s", tb.Render())
	}
}

func TestE13CrashVsOmission(t *testing.T) {
	if tb := E13CrashVsOmission(); !tb.Pass {
		t.Fatalf("E13 failed:\n%s", tb.Render())
	}
}

func TestModelCheckingExperiments(t *testing.T) {
	// The theorem matrix (shared with TestTheoremMatrix) and E14 build
	// exhaustive systems.
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tb := range []*Table{matrix(), E14Synthesis(0)} {
		if !tb.Pass {
			t.Fatalf("%s failed:\n%s", tb.ID, tb.Render())
		}
	}
}
