// The lease table: the coordinator's failure detector and work queue in
// one structure. Every stripe is pending, leased, or done; a lease is a
// promise to heartbeat, and a worker that stops heartbeating — crashed,
// partitioned, or merely slow — is treated identically (the adaptive-
// omission stance: silence IS the failure), its stripe requeued for the
// next lease request. Completion is keyed on content, not on lease
// ownership: any sealed valid upload completes a stripe, the first one
// wins, and a second upload must match its digest or the job aborts.

package fabric

import (
	"fmt"
	"sync"
	"time"
)

type stripeState int8

const (
	stripePending stripeState = iota
	stripeLeased
	stripeDone
)

// leaseTable tracks the job's stripes. All methods are safe for
// concurrent use; time is injected so tests can drive expiry.
type leaseTable struct {
	ttl time.Duration
	now func() time.Time

	mu       sync.Mutex
	state    []stripeState
	holder   []string    // current lease holder (leased stripes)
	expired  []string    // last holder to lose a lease on the stripe
	deadline []time.Time // heartbeat deadline (leased stripes)
	digest   []string    // accepted digest (done stripes)
	done     int
	counters Counters
}

func newLeaseTable(stripes int, ttl time.Duration, now func() time.Time) *leaseTable {
	return &leaseTable{
		ttl:      ttl,
		now:      now,
		state:    make([]stripeState, stripes),
		holder:   make([]string, stripes),
		expired:  make([]string, stripes),
		deadline: make([]time.Time, stripes),
		digest:   make([]string, stripes),
	}
}

// expireLocked requeues every leased stripe whose heartbeat deadline has
// passed. Callers hold t.mu.
func (t *leaseTable) expireLocked() int {
	now := t.now()
	n := 0
	for i, s := range t.state {
		if s == stripeLeased && now.After(t.deadline[i]) {
			t.state[i] = stripePending
			t.expired[i] = t.holder[i]
			t.holder[i] = ""
			t.counters.Expirations++
			n++
		}
	}
	return n
}

// expire requeues timed-out leases and returns how many it reclaimed.
func (t *leaseTable) expire() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.expireLocked()
}

// lease grants the lowest pending stripe to the worker, expiring stale
// leases first so a dead worker's stripes circulate without waiting for
// the coordinator's ticker.
func (t *leaseTable) lease(worker string) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	for i, s := range t.state {
		if s != stripePending {
			continue
		}
		t.state[i] = stripeLeased
		t.holder[i] = worker
		t.deadline[i] = t.now().Add(t.ttl)
		t.counters.Leases++
		return i, true
	}
	return 0, false
}

// heartbeat renews the worker's lease on the stripe. It reports false
// when the lease is gone — expired and possibly re-granted — which tells
// the worker to abandon the stripe.
func (t *leaseTable) heartbeat(worker string, stripe int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if stripe < 0 || stripe >= len(t.state) {
		return false
	}
	if t.state[stripe] != stripeLeased || t.holder[stripe] != worker {
		return false
	}
	t.deadline[stripe] = t.now().Add(t.ttl)
	return true
}

// complete records a verified upload of the stripe. The first sealed
// valid upload wins regardless of who holds the lease (a stolen stripe's
// original runner may finish first — that's still the deterministic
// answer). A duplicate with the same digest is discarded as a no-op; a
// duplicate with a different digest is a fatal inconsistency. The winner
// owns the stripe from here on, but the stripe counts toward allDone only
// once the caller has spooled it and called publish.
func (t *leaseTable) complete(stripe int, digest, worker string) (first bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if stripe < 0 || stripe >= len(t.state) {
		return false, fmt.Errorf("fabric: stripe %d outside [0, %d)", stripe, len(t.state))
	}
	if t.state[stripe] == stripeDone {
		if t.digest[stripe] != digest {
			return false, fmt.Errorf("%w: stripe %d accepted digest %s, new sealed upload digests %s",
				ErrConflict, stripe, t.digest[stripe], digest)
		}
		t.counters.Duplicates++
		return false, nil
	}
	// A completion by someone other than the worker the stripe last
	// expired away from means the reassignment actually paid off.
	if t.expired[stripe] != "" && t.expired[stripe] != worker {
		t.counters.Steals++
	}
	t.state[stripe] = stripeDone
	t.holder[stripe] = ""
	t.digest[stripe] = digest
	return true, nil
}

// publish counts a completed stripe as done: its file is in the spool,
// so a merge woken by allDone can open it.
func (t *leaseTable) publish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
}

// reject requeues a stripe whose upload failed verification. Torn or
// tampered uploads land here — exactly the failures lease reassignment
// exists for, so the stripe goes straight back into circulation.
func (t *leaseTable) reject(stripe int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if stripe < 0 || stripe >= len(t.state) || t.state[stripe] == stripeDone {
		return
	}
	t.state[stripe] = stripePending
	t.expired[stripe] = t.holder[stripe]
	t.holder[stripe] = ""
	t.counters.Rejects++
}

// markDone records a stripe recovered from disk (coordinator restart).
func (t *leaseTable) markDone(stripe int, digest string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state[stripe] != stripeDone {
		t.state[stripe] = stripeDone
		t.digest[stripe] = digest
		t.done++
	}
}

// allDone reports whether every stripe has a verified result.
func (t *leaseTable) allDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done == len(t.state)
}

// snapshot returns the stripe counts and counters for the status report.
func (t *leaseTable) snapshot() (StripeCounts, Counters) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := StripeCounts{Total: len(t.state), Done: t.done}
	for _, s := range t.state {
		switch s {
		case stripePending:
			c.Pending++
		case stripeLeased:
			c.Leased++
		}
	}
	return c, t.counters
}
