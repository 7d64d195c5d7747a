package model_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
)

// splitUnmarshalText is Pattern.UnmarshalText as it was before it read the
// text in place: strings.Split into fields, lists and drops, the faulty
// ids and drops gathered into slices and applied after the last field.
// The oracle the in-place decoder must match, acceptance, pattern and
// error text alike.
func splitUnmarshalText(text []byte) (*model.Pattern, error) {
	var n, h int
	var faulty []int
	type drop struct{ m, i, j int }
	var drops []drop

	for _, field := range strings.Split(string(text), ";") {
		k, v, found := strings.Cut(field, "=")
		if !found {
			return nil, fmt.Errorf("model: bad pattern field %q", field)
		}
		switch k {
		case "n":
			x, err := strconv.Atoi(v)
			if err != nil || x <= 0 {
				return nil, fmt.Errorf("model: bad agent count %q", v)
			}
			n = x
		case "h":
			x, err := strconv.Atoi(v)
			if err != nil || x < 0 {
				return nil, fmt.Errorf("model: bad horizon %q", v)
			}
			h = x
		case "f":
			if v == "" {
				continue
			}
			for _, part := range strings.Split(v, ",") {
				x, err := strconv.Atoi(part)
				if err != nil {
					return nil, fmt.Errorf("model: bad faulty id %q", part)
				}
				faulty = append(faulty, x)
			}
		case "d":
			if v == "" {
				continue
			}
			for _, part := range strings.Split(v, ",") {
				nums := strings.Split(part, ":")
				if len(nums) != 3 {
					return nil, fmt.Errorf("model: bad drop %q", part)
				}
				var d drop
				var err error
				if d.m, err = strconv.Atoi(nums[0]); err != nil {
					return nil, fmt.Errorf("model: bad drop %q", part)
				}
				if d.i, err = strconv.Atoi(nums[1]); err != nil {
					return nil, fmt.Errorf("model: bad drop %q", part)
				}
				if d.j, err = strconv.Atoi(nums[2]); err != nil {
					return nil, fmt.Errorf("model: bad drop %q", part)
				}
				drops = append(drops, d)
			}
		default:
			return nil, fmt.Errorf("model: unknown pattern field %q", k)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("model: pattern text missing n")
	}
	q := model.NewPattern(n, h)
	for _, f := range faulty {
		if f < 0 || f >= n {
			return nil, fmt.Errorf("model: faulty id %d out of range", f)
		}
		q.SetFaulty(model.AgentID(f))
	}
	for _, d := range drops {
		if d.m < 0 || d.m >= h || d.i < 0 || d.i >= n || d.j < 0 || d.j >= n {
			return nil, fmt.Errorf("model: drop (%d,%d,%d) out of range", d.m, d.i, d.j)
		}
		q.Drop(d.m, model.AgentID(d.i), model.AgentID(d.j))
	}
	return q, nil
}

// patternTextTooLarge reports whether the n or the h that holds in text,
// the last of each, is over 64, which UnmarshalText refuses; the
// Split-based decoder would build a pattern of n·n·h drops first.
func patternTextTooLarge(text []byte) bool {
	n, h := 0, 0
	for _, field := range strings.Split(string(text), ";") {
		k, v, _ := strings.Cut(field, "=")
		if x, err := strconv.Atoi(v); err == nil && k == "n" {
			n = x
		} else if err == nil && k == "h" {
			h = x
		}
	}
	return n > 64 || h > 64
}

// FuzzPatternText holds Pattern.UnmarshalText to the Split-based decoder
// it replaced: the same texts accepted, with equal patterns, the same
// refused, with the same error; and an accepted text re-marshals to the
// canonical form, which decodes to the same pattern and marshals to
// itself. A text whose n or h is over 64 is refused, and never reaches
// the pattern's allocation.
func FuzzPatternText(f *testing.F) {
	for _, seed := range []string{
		"n=3;h=3;f=0;d=0:0:1,0:0:2,1:0:2",
		"n=3;h=2;f=0;d=1:0:2",
		"n=2;h=1;f=;d=",
		"h=2;d=1:0:1;f=1,0;n=2",
		"n=3;h=2;f=2;f=0;d=0:1:0;d=1:2:2;n=4",
		"n=3;h=2;f=;d=5:0:1;f=9",
		"n=3;h=2;f=;d=0:0",
		"n=3;h=2;f=;d=0:0:1:2",
		"n=3;h=2;f=x;d=",
		"n=3;h=2;f=1,;d=",
		"n=3;h=2;f=;d=0:0:1,",
		"n=3;;h=2",
		"n=+3;h=02;f=-0;d=0:+1:2",
		"n=3;h=2;f=;d=;zz=1",
		"garbage",
		"n=",
		"",
		"n=4000000000;h=3;f=;d=",
		"n=3;h=65;f=;d=",
		"n=100;n=3;h=2;f=;d=",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		if patternTextTooLarge(text) {
			var p model.Pattern
			if err := p.UnmarshalText(text); err == nil {
				t.Fatalf("UnmarshalText(%q) accepted n=%d, h=%d", text, p.N(), p.Horizon())
			}
			if n, h, err := model.PatternShape(text); err == nil {
				t.Fatalf("PatternShape(%q) accepted n=%d, h=%d", text, n, h)
			}
			return
		}
		want, wantErr := splitUnmarshalText(text)
		var got model.Pattern
		err := got.UnmarshalText(text)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("UnmarshalText(%q) error %v, the Split decoder's %v", text, err, wantErr)
		}
		if err != nil {
			return
		}
		gotText, _ := got.MarshalText()
		wantText, _ := want.MarshalText()
		if string(gotText) != string(wantText) {
			t.Fatalf("UnmarshalText(%q) = %q, the Split decoder's %q", text, gotText, wantText)
		}
		var again model.Pattern
		if err := again.UnmarshalText(gotText); err != nil {
			t.Fatalf("the canonical form %q of %q does not decode: %v", gotText, text, err)
		}
		if againText, _ := again.MarshalText(); string(againText) != string(gotText) || again.Key() != got.Key() {
			t.Fatalf("the canonical form %q of %q decodes to %q", gotText, text, againText)
		}
	})
}
