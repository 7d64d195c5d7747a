package experiments

import "testing"

func TestE15Ablation(t *testing.T) {
	if tb := E15CommonKnowledgeAblation(); !tb.Pass {
		t.Fatalf("E15 failed:\n%s", tb.Render())
	}
}

func TestE16Sweep(t *testing.T) {
	if tb := E16DropProbabilitySweep(7, 30, 2); !tb.Pass {
		t.Fatalf("E16 failed:\n%s", tb.Render())
	}
}
