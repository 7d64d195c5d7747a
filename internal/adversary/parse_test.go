package adversary

import (
	"testing"

	"repro/internal/model"
)

func TestParseForms(t *testing.T) {
	if p, err := Parse("none", 4, 1, 3, 0, 0); err != nil || p.NumFaulty() != 0 {
		t.Errorf("none: %v, %d faulty", err, p.NumFaulty())
	}
	p, err := Parse("example71", 4, 2, 4, 0, 0)
	if err != nil || !p.Faulty(0) || !p.Faulty(1) || p.Faulty(2) {
		t.Errorf("example71: %v, faulty set %v", err, p.FaultySet())
	}
	if p, err = Parse("random", 5, 2, 4, 7, 0.5); err != nil || p.NumFaulty() > 2 {
		t.Errorf("random: %v", err)
	}
	p, err = Parse("silent:0, 2", 4, 2, 4, 0, 0)
	if err != nil || !p.Faulty(0) || !p.Faulty(model.AgentID(2)) || p.Faulty(1) {
		t.Errorf("silent list: %v", err)
	}
	const text = "n=4;h=4;f=1;d=0:1:0,2:1:3"
	if p, err = Parse("pattern:"+text, 4, 2, 4, 0, 0); err != nil || p.String() != mustPattern(text).String() {
		t.Errorf("pattern: %v, %v", err, p)
	}
}

// mustPattern decodes a pattern text the test knows to be well formed.
func mustPattern(text string) *model.Pattern {
	p := new(model.Pattern)
	if err := p.UnmarshalText([]byte(text)); err != nil {
		panic(err)
	}
	return p
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus",
		"silent:9",                      // agent out of range
		"silent:x",                      // not a number
		"silent:0,1,2,3",                // exceeds t
		"pattern:n=4;h=4;f=1;d=0:1:",    // malformed
		"pattern:n=3;h=4;f=1",           // another n
		"pattern:n=4;h=3;f=1",           // another horizon
		"pattern:n=4;h=4;f=0,1,2",       // exceeds t
		"pattern:n=4;h=4;f=0,1;d=0:2:0", // a drop makes a third agent faulty
	}
	for _, spec := range cases {
		if _, err := Parse(spec, 4, 2, 4, 0, 0); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}
