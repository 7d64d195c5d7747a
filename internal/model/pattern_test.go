package model

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPatternFailureFree(t *testing.T) {
	p := NewPattern(4, 3)
	if p.N() != 4 || p.Horizon() != 3 {
		t.Fatalf("N=%d Horizon=%d, want 4, 3", p.N(), p.Horizon())
	}
	if p.NumFaulty() != 0 {
		t.Errorf("fresh pattern has %d faulty agents", p.NumFaulty())
	}
	for m := 0; m < 3; m++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if !p.Delivered(m, AgentID(i), AgentID(j)) {
					t.Errorf("message (%d,%d→%d) dropped in failure-free pattern", m, i, j)
				}
			}
		}
	}
}

func TestDropMarksFaulty(t *testing.T) {
	p := NewPattern(3, 2)
	p.Drop(1, 0, 2)
	if p.Nonfaulty(0) {
		t.Error("agent 0 still nonfaulty after dropping a message")
	}
	if p.Delivered(1, 0, 2) {
		t.Error("dropped message reported delivered")
	}
	if !p.Delivered(0, 0, 2) {
		t.Error("undropped message reported dropped")
	}
}

func TestDeliveredBeyondHorizon(t *testing.T) {
	p := NewPattern(3, 2)
	p.SetFaulty(1)
	if !p.Delivered(5, 1, 0) {
		t.Error("message beyond horizon should be delivered")
	}
	if !p.Delivered(-1, 1, 0) {
		t.Error("negative time should be treated as delivered")
	}
}

func TestDropOutsideHorizonPanics(t *testing.T) {
	p := NewPattern(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Drop beyond horizon did not panic")
		}
	}()
	p.Drop(2, 0, 1)
}

func TestSilence(t *testing.T) {
	p := NewPattern(3, 4)
	p.Silence(1, 1, 3)
	for m := 0; m < 4; m++ {
		for j := 0; j < 3; j++ {
			got := p.Delivered(m, 1, AgentID(j))
			want := m < 1 || m >= 3 || j == 1 // self messages are not silenced
			if got != want {
				t.Errorf("Delivered(%d,1,%d) = %v, want %v", m, j, got, want)
			}
		}
	}
	if p.Nonfaulty(1) {
		t.Error("silenced agent not marked faulty")
	}
}

func TestSilenceClipsToHorizon(t *testing.T) {
	p := NewPattern(2, 2)
	p.Silence(0, 0, 100) // must not panic
	if p.Delivered(1, 0, 1) {
		t.Error("message within horizon not silenced")
	}
}

func TestSetNonfaultyRestoresDelivery(t *testing.T) {
	p := NewPattern(3, 2)
	p.Silence(2, 0, 2)
	p.SetNonfaulty(2)
	if p.Faulty(2) {
		t.Error("agent still faulty after SetNonfaulty")
	}
	if !p.Delivered(0, 2, 0) || !p.Delivered(1, 2, 1) {
		t.Error("drops not cleared by SetNonfaulty")
	}
}

func TestFaultyAndNonfaultySets(t *testing.T) {
	p := NewPattern(4, 1)
	p.SetFaulty(1)
	p.SetFaulty(3)
	gotF := p.FaultySet()
	if len(gotF) != 2 || gotF[0] != 1 || gotF[1] != 3 {
		t.Errorf("FaultySet() = %v, want [1 3]", gotF)
	}
	gotN := p.NonfaultySet()
	if len(gotN) != 2 || gotN[0] != 0 || gotN[1] != 2 {
		t.Errorf("NonfaultySet() = %v, want [0 2]", gotN)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewPattern(3, 2)
	p.Drop(0, 0, 1)
	q := p.Clone()
	q.Drop(1, 2, 0)
	if !p.Delivered(1, 2, 0) {
		t.Error("mutating clone affected original")
	}
	if q.Delivered(0, 0, 1) {
		t.Error("clone lost original drop")
	}
}

func TestKeyDistinguishesPatterns(t *testing.T) {
	p := NewPattern(3, 2)
	q := NewPattern(3, 2)
	if p.Key() != q.Key() {
		t.Error("identical patterns have different keys")
	}
	q.SetFaulty(0)
	if p.Key() == q.Key() {
		t.Error("faulty-set difference not reflected in key")
	}
	r := NewPattern(3, 2)
	r.Drop(0, 1, 2)
	rr := NewPattern(3, 2)
	rr.Drop(1, 1, 2)
	if r.Key() == rr.Key() {
		t.Error("different drop rounds produce equal keys")
	}
}

func TestKeyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPattern(4, 3)
		for k := 0; k < 5; k++ {
			m := rng.Intn(3)
			i := AgentID(rng.Intn(4))
			j := AgentID(rng.Intn(4))
			p.Drop(m, i, j)
		}
		return p.Clone().Key() == p.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternString(t *testing.T) {
	p := NewPattern(3, 2)
	p.Drop(1, 0, 2)
	s := p.String()
	if !strings.Contains(s, "faulty{0}") {
		t.Errorf("String() = %q, missing faulty set", s)
	}
	if !strings.Contains(s, "drop(m=1,0→2)") {
		t.Errorf("String() = %q, missing drop record", s)
	}
}

// TestPatternPrefixKeyAndLastDrops: the prefix key sees the faulty set and
// the drops before time m and nothing later; FaultyDropsTo numbers the
// faulty senders in increasing order and reads one round only.
func TestPatternPrefixKeyAndLastDrops(t *testing.T) {
	base := NewPattern(4, 3)
	base.Drop(0, 1, 2)
	base.SetFaulty(3)
	key := func(p *Pattern, m int) string { return string(p.AppendPrefixKey(nil, m)) }

	late := base.Clone()
	late.Drop(2, 3, 0)
	late.Drop(2, 1, 0)
	if key(late, 2) != key(base, 2) {
		t.Error("a drop sent at time 2 changed the prefix key of times < 2")
	}
	if key(late, 3) == key(base, 3) || key(late, 9) != key(late, 3) {
		t.Error("the whole-pattern prefix key misses a time-2 drop, or m is not clipped to the horizon")
	}
	early := base.Clone()
	early.Drop(1, 1, 0)
	if key(early, 2) == key(base, 2) || key(early, 1) != key(base, 1) {
		t.Error("a drop sent at time 1 must change the prefix key of times < 2 and not of times < 1")
	}
	quiet := base.Clone()
	quiet.SetFaulty(0)
	if key(quiet, 0) == key(base, 0) {
		t.Error("the prefix key misses a faulty agent that drops nothing")
	}

	// Faulty agents of late are 1 and 3: bit 0 is agent 1, bit 1 agent 3.
	for j, want := range []uint64{0b11, 0, 0, 0} {
		if got := late.FaultyDropsTo(2, AgentID(j)); got != want {
			t.Errorf("FaultyDropsTo(2, %d) = %b, want %b", j, got, want)
		}
	}
	if got := late.FaultyDropsTo(0, 2); got != 0b01 {
		t.Errorf("FaultyDropsTo(0, 2) = %b, want 1 (agent 1 alone drops to 2 at time 0)", got)
	}
}

func TestSOAdmits(t *testing.T) {
	p := NewPattern(4, 3)
	p.Silence(0, 0, 3)
	if err := SO(1).Admits(p); err != nil {
		t.Errorf("SO(1) rejected a one-faulty pattern: %v", err)
	}
	p.Silence(1, 0, 3)
	err := SO(1).Admits(p)
	if err == nil {
		t.Fatal("SO(1) admitted a two-faulty pattern")
	}
	if !errors.Is(err, ErrPatternRejected) {
		t.Errorf("error %v does not wrap ErrPatternRejected", err)
	}
	if err := SO(2).Admits(p); err != nil {
		t.Errorf("SO(2) rejected a two-faulty pattern: %v", err)
	}
}

func TestCrashAdmitsSuffixClosedDrops(t *testing.T) {
	// Crash at time 1 reaching only agent 0 in its crash round: OK.
	p := NewPattern(3, 3)
	p.Drop(1, 2, 1) // time 1: reaches 0, not 1
	p.Silence(2, 2, 3)
	p.Drop(2, 2, 2) // silence skips self; crash drops self messages too
	if err := Crash(1).Admits(p); err != nil {
		t.Errorf("Crash(1) rejected a valid crash pattern: %v", err)
	}

	// Recovery (drop then deliver in a later round) is not a crash.
	q := NewPattern(3, 3)
	for j := 0; j < 3; j++ {
		q.Drop(0, 1, AgentID(j))
	}
	// time 1: agent 1 sends again — invalid under crash.
	if err := Crash(1).Admits(q); err == nil {
		t.Error("Crash(1) admitted an omit-then-send pattern")
	}
	if err := SO(1).Admits(q); err != nil {
		t.Errorf("SO(1) rejected an omission pattern: %v", err)
	}
}

func TestAdmitsRejectsNonfaultyDrops(t *testing.T) {
	// Construct an inconsistent pattern by clearing faultiness after a drop.
	p := NewPattern(3, 2)
	p.Drop(0, 1, 2)
	p.faulty[1] = false // bypass the API to simulate corruption
	if err := SO(1).Admits(p); err == nil {
		t.Error("Admits accepted a pattern where a nonfaulty agent drops")
	}
}

func TestFailureModelString(t *testing.T) {
	if SO(2).String() != "SO(2)" {
		t.Errorf("SO(2).String() = %q", SO(2).String())
	}
	if Crash(1).String() != "crash(1)" {
		t.Errorf("Crash(1).String() = %q", Crash(1).String())
	}
}

func TestCrashIsSpecialCaseOfSO(t *testing.T) {
	// Property: every pattern admitted by Crash(t) is admitted by SO(t).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPattern(4, 3)
		// Build a legal crash pattern: agent 0 crashes at a random time,
		// reaching a random subset in the crash round.
		crashAt := rng.Intn(3)
		for j := 0; j < 4; j++ {
			if rng.Intn(2) == 0 {
				p.Drop(crashAt, 0, AgentID(j))
			}
		}
		for m := crashAt + 1; m < 3; m++ {
			for j := 0; j < 4; j++ {
				p.Drop(m, 0, AgentID(j))
			}
		}
		if err := Crash(1).Admits(p); err != nil {
			return true // not a legal crash pattern (e.g. empty subset at crashAt): skip
		}
		return SO(1).Admits(p) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
