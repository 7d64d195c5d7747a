package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	rescache "repro/internal/cache"
	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/source"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, req any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return b
}

// referenceShard reproduces what ebashard writes for one stripe: the
// runner configuration here mirrors cmd/ebashard's runStripe exactly.
func referenceShard(t *testing.T, stackName string, n, tf int, shard source.ShardSpec, quotient bool) []byte {
	t.Helper()
	stack, err := core.NewStack(stackName, core.WithN(n), core.WithT(tf))
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	pats, err := source.SO(stack.N, stack.T, stack.Horizon(), adversary.Options{})
	if err != nil {
		t.Fatalf("patterns: %v", err)
	}
	src, err := source.CrossInits(pats, stack.N)
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	var csrc core.Source = src
	if quotient {
		csrc = source.Quotient(src)
	}
	var buf bytes.Buffer
	r := core.NewRunner(stack,
		core.WithParallelism(2),
		core.WithSpecCheck(specOptions(stack)))
	if _, err := r.RunShard(context.Background(), csrc, shard.Index, shard.Count, &buf); err != nil {
		t.Fatalf("reference RunShard: %v", err)
	}
	return buf.Bytes()
}

// TestSweepMatchesCLIBytes pins the served sweep stream byte-identical
// to the CLI path for whole sweeps, stripes, and quotiented sweeps.
func TestSweepMatchesCLIBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		req      SweepRequest
		shard    source.ShardSpec
		quotient bool
	}{
		{"whole", SweepRequest{Stack: "min", N: 3, T: 1}, source.ShardSpec{Index: 0, Count: 1}, false},
		{"stripe0", SweepRequest{Stack: "min", N: 3, T: 1, Shard: "0/3"}, source.ShardSpec{Index: 0, Count: 3}, false},
		{"stripe2", SweepRequest{Stack: "min", N: 3, T: 1, Shard: "2/3"}, source.ShardSpec{Index: 2, Count: 3}, false},
		{"quotient", SweepRequest{Stack: "min", N: 3, T: 1, Quotient: true}, source.ShardSpec{Index: 0, Count: 1}, true},
		{"fip", SweepRequest{Stack: "fip", N: 3, T: 1, Parallelism: 1}, source.ShardSpec{Index: 0, Count: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceShard(t, tc.req.Stack, tc.req.N, tc.req.T, tc.shard, tc.quotient)
			resp := postJSON(t, ts.URL+"/v1/sweep", tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp.Body))
			}
			got := readAll(t, resp.Body)
			if !bytes.Equal(got, want) {
				t.Fatalf("served stream differs from CLI bytes:\n got %d bytes\nwant %d bytes", len(got), len(want))
			}
			// The served stream must verify like any stripe.
			if _, err := core.VerifyOutcomeStream(bytes.NewReader(got)); err != nil {
				t.Fatalf("served stream fails verification: %v", err)
			}
		})
	}
}

// everyRun hides the exchange's optional interfaces, so the checker
// executes every scenario over it instead of one per agent-permutation
// orbit: the reference Systems are built run by run, whatever the stack.
type everyRun struct{ model.Exchange }

// buildReferenceSystem builds the stack's System run by run.
func buildReferenceSystem(t *testing.T, stackName string, n, tf int) (core.Stack, *episteme.System) {
	t.Helper()
	stack, err := core.NewStack(stackName, core.WithN(n), core.WithT(tf))
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	ec := episteme.ContextFor(stack)
	ec.Exchange = everyRun{ec.Exchange}
	sys, err := episteme.BuildSystem(context.Background(), ec, stack.Action)
	if err != nil {
		t.Fatalf("build system: %v", err)
	}
	if sys.Runs[0].States == nil {
		t.Fatalf("the %s reference build kept no state traces: it was not built run by run", stackName)
	}
	return stack, sys
}

// TestCheckMatchesCLIBytes pins the served verdict block byte-identical
// to the fabric/CLI WriteVerdicts output over a System built run by run,
// for a stack whose keys the quotient's expansion rewrites (fip) and one
// whose keys name no agent (min); the server quotients both.
func TestCheckMatchesCLIBytes(t *testing.T) {
	cases := []struct {
		name string
		req  CheckRequest
	}{
		{"min", CheckRequest{Stack: "min", N: 3, T: 1, Safety: true}},
		{"fip-quotient", CheckRequest{Stack: "fip", N: 3, T: 1, SkipOptimality: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			stack, sys := buildReferenceSystem(t, tc.req.Stack, 3, 1)
			var want bytes.Buffer
			if err := fabric.WriteVerdicts(context.Background(), &want, sys, stack.Name,
				fabric.VerdictOptions{Safety: tc.req.Safety, Optimality: !tc.req.SkipOptimality}); err != nil {
				t.Fatalf("reference verdicts: %v", err)
			}
			resp := postJSON(t, ts.URL+"/v1/check", tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp.Body))
			}
			if v := resp.Header.Get(VerdictHeader); v != "ok" {
				t.Fatalf("%s = %q, want ok", VerdictHeader, v)
			}
			got := readAll(t, resp.Body)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("served verdicts differ from CLI bytes:\n got: %s\nwant: %s", got, want.Bytes())
			}
		})
	}
}

// memoSize reports how many verdict blocks the stack's cached System has
// memoized, or -1 when the System is not cached.
func memoSize(t *testing.T, s *Server, stackName string, n, tf int) int {
	t.Helper()
	stack, err := newStack(stackName, n, tf, 0)
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	s.lru.mu.Lock()
	defer s.lru.mu.Unlock()
	el, ok := s.lru.entries[s.lruKey(stack)]
	if !ok {
		return -1
	}
	return len(el.Value.(*lruEntry).verdicts)
}

// TestCheckMemo pins the verdict memo: a repeated check is answered from
// the block stored on its cached System with the same bytes and header;
// parallelism and the spellings of the default MaxViolations share a
// block; nothing is stored for a check that did not finish, nothing
// outlives its System's eviction, and one System stores at most
// maxVerdicts blocks.
func TestCheckMemo(t *testing.T) {
	check := func(t *testing.T, url string, req CheckRequest) (body []byte, outcome string) {
		t.Helper()
		resp := postJSON(t, url+"/v1/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, readAll(t, resp.Body))
		}
		return readAll(t, resp.Body), resp.Header.Get(VerdictHeader)
	}

	for _, tc := range []struct {
		name    string
		req     CheckRequest
		outcome string
	}{
		{"ok", CheckRequest{Stack: "fip", N: 3, T: 1}, "ok"},
		// n−t = 1: Pmin decides later than P0 says it may.
		{"failed", CheckRequest{Stack: "min", N: 2, T: 1}, "failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			first, firstOutcome := check(t, ts.URL, tc.req)
			if firstOutcome != tc.outcome || s.met.checkMemoHits.Load() != 0 {
				t.Fatalf("first check: %s = %q, %d memo hits; want %q, 0", VerdictHeader, firstOutcome, s.met.checkMemoHits.Load(), tc.outcome)
			}
			again, againOutcome := check(t, ts.URL, tc.req)
			if !bytes.Equal(again, first) || againOutcome != firstOutcome {
				t.Fatalf("memoized check answers %q with\n%s\nwant %q with\n%s", againOutcome, again, firstOutcome, first)
			}
			if got := s.met.checkMemoHits.Load(); got != 1 {
				t.Fatalf("%d memo hits after a repeated check, want 1", got)
			}
			mresp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer mresp.Body.Close()
			if text := string(readAll(t, mresp.Body)); !strings.Contains(text, "\neba_check_memo_hits_total 1\n") {
				t.Fatal("metrics exposition does not report the memo hit")
			}
		})
	}

	t.Run("shared_keys", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		base := CheckRequest{Stack: "min", N: 2, T: 1}
		want, _ := check(t, ts.URL, base)
		for _, req := range []CheckRequest{
			{Stack: "min", N: 2, T: 1, Parallelism: 1},
			{Stack: "min", N: 2, T: 1, Parallelism: 7},
			{Stack: "min", N: 2, T: 1, MaxViolations: -1},
			{Stack: "min", N: 2, T: 1, MaxViolations: 5},
		} {
			if got, _ := check(t, ts.URL, req); !bytes.Equal(got, want) {
				t.Fatalf("%+v answers\n%s\nwant\n%s", req, got, want)
			}
		}
		if hits, size := s.met.checkMemoHits.Load(), memoSize(t, s, "min", 2, 1); hits != 4 || size != 1 {
			t.Fatalf("%d memo hits over %d blocks, want 4 over 1", hits, size)
		}
		one, _ := check(t, ts.URL, CheckRequest{Stack: "min", N: 2, T: 1, MaxViolations: 1})
		if bytes.Equal(one, want) {
			t.Fatal("maxViolations 1 answers the default block")
		}
		if hits, size := s.met.checkMemoHits.Load(), memoSize(t, s, "min", 2, 1); hits != 4 || size != 2 {
			t.Fatalf("%d memo hits over %d blocks, want 4 over 2", hits, size)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		// Build the System first, so the cancelled check reaches the checker.
		if resp := postJSON(t, ts.URL+"/v1/knowledge", KnowledgeRequest{Stack: "min", N: 3, T: 1, Query: QueryExists}); resp.StatusCode != http.StatusOK {
			t.Fatalf("knowledge status %d", resp.StatusCode)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		body, _ := json.Marshal(CheckRequest{Stack: "min", N: 3, T: 1})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)).WithContext(ctx))
		if rec.Code == http.StatusOK {
			t.Fatal("a cancelled check answered 200")
		}
		if size := memoSize(t, s, "min", 3, 1); size != 0 {
			t.Fatalf("a cancelled check stored %d blocks", size)
		}
		check(t, ts.URL, CheckRequest{Stack: "min", N: 3, T: 1})
		if hits := s.met.checkMemoHits.Load(); hits != 0 {
			t.Fatalf("the check after a cancelled one made %d memo hits, want 0", hits)
		}
	})

	t.Run("evicted_with_system", func(t *testing.T) {
		s, ts := newTestServer(t, Config{MaxSystems: 1})
		first := CheckRequest{Stack: "min", N: 3, T: 1}
		check(t, ts.URL, first)
		check(t, ts.URL, CheckRequest{Stack: "basic", N: 3, T: 1})
		if size := memoSize(t, s, "min", 3, 1); size != -1 {
			t.Fatalf("min's System is still cached with %d blocks after basic evicted it", size)
		}
		check(t, ts.URL, first)
		if hits := s.met.checkMemoHits.Load(); hits != 0 {
			t.Fatalf("a check on a rebuilt System made %d memo hits, want 0", hits)
		}
	})

	t.Run("bounded", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		for max := 1; max <= maxVerdicts+2; max++ {
			check(t, ts.URL, CheckRequest{Stack: "min", N: 2, T: 1, MaxViolations: max})
		}
		if size := memoSize(t, s, "min", 2, 1); size != maxVerdicts {
			t.Fatalf("the memo holds %d blocks after %d distinct checks, want %d", size, maxVerdicts+2, maxVerdicts)
		}
		// Past the bound, checks are computed again, not stored.
		check(t, ts.URL, CheckRequest{Stack: "min", N: 2, T: 1, MaxViolations: maxVerdicts + 2})
		if hits := s.met.checkMemoHits.Load(); hits != 0 {
			t.Fatalf("a check past the bound made %d memo hits, want 0", hits)
		}
	})
}

// TestKnowledgeQueries exercises every query kind against semantics
// computed directly on the reference System, for two stacks served from an
// expanded System (min, whose keys name no agent, and fip), whose index
// rows before the horizon are prefix units: there the points must
// fall both on a unit's first run and on its later ones, where an answer
// read off the wrong row would show.
func TestKnowledgeQueries(t *testing.T) {
	for _, stackName := range []string{"min", "fip"} {
		t.Run(stackName, func(t *testing.T) { testKnowledgeQueries(t, stackName) })
	}
}

func testKnowledgeQueries(t *testing.T, stackName string) {
	_, ts := newTestServer(t, Config{})
	_, sys := buildReferenceSystem(t, stackName, 3, 1)

	query := func(req KnowledgeRequest) KnowledgeResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/knowledge", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp.Body))
		}
		var kr KnowledgeResponse
		if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return kr
	}

	base := KnowledgeRequest{Stack: stackName, N: 3, T: 1}

	// A prefix unit is the runs that share inits, faulty set and every drop
	// before the last round; its first run is its lowest.
	unitFirst := make(map[string]int)
	unitOf := make([]string, len(sys.Runs))
	for r, res := range sys.Runs {
		unitOf[r] = fmt.Sprint(res.Inits) + string(res.Pattern.AppendPrefixKey(nil, sys.Horizon-1))
		if _, seen := unitFirst[unitOf[r]]; !seen {
			unitFirst[unitOf[r]] = r
		}
	}

	// Cross-check every query kind on a spread of points against the
	// in-process System.
	checked, onFirst, offFirst := 0, 0, 0
	for run := 0; run < len(sys.Runs); run += 7 {
		if unitFirst[unitOf[run]] == run {
			onFirst++
		} else {
			offFirst++
		}
		for _, tm := range []int{0, sys.Horizon - 1, sys.Horizon} {
			for v := 0; v <= 1; v++ {
				for _, q := range queryKinds {
					for agent := 0; agent < sys.N; agent++ {
						req := withQuery(base, q, agent, run, tm, v)
						if got, want := query(req), referenceAnswer(sys, req); got != want {
							t.Fatalf("%s(agent %d, value %d) at run %d, time %d: served %+v, want %+v", q, agent, v, run, tm, got, want)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 || onFirst == 0 || offFirst == 0 {
		t.Fatalf("%d points checked, %d runs first of their prefix unit and %d not", checked, onFirst, offFirst)
	}

	// Validation errors.
	for _, bad := range []KnowledgeRequest{
		withQuery(base, "mystery", 0, 0, 0, 0),
		withQuery(base, QueryExists, 0, len(sys.Runs), 0, 0),
		withQuery(base, QueryExists, 0, 0, sys.Horizon+1, 0),
		withQuery(base, QueryNonfaulty, 3, 0, 0, 0),
		withQuery(base, QueryExists, 0, 0, 0, 7),
	} {
		resp := postJSON(t, ts.URL+"/v1/knowledge", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestUnknownQueryBuildsNothing: the query kind is the request's own to
// get wrong, so a cold server refuses it before resolving the System — no
// LRU miss, no build, nothing cached.
func TestUnknownQueryBuildsNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/knowledge", KnowledgeRequest{Stack: "fip", N: 3, T: 1, Query: "nonsense"})
	if body := string(readAll(t, resp.Body)); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, `unknown query "nonsense"`) {
		t.Fatalf("status %d, body %q; want 400 naming the query", resp.StatusCode, body)
	}
	if misses, builds := s.met.lruMisses.Load(), s.lru.len(); misses != 0 || builds != 0 {
		t.Fatalf("an unknown query cost %d LRU misses and left %d Systems cached, want none", misses, builds)
	}
}

// TestFaultBoundRefused: t ≥ n used to reach graph.Ref and panic in a
// Runner worker goroutine, taking the daemon with it; a negative horizon
// used to become the default. Both are 400s naming the numbers, and the
// same server answers the next request.
func TestFaultBoundRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/sweep", "/v1/check"} {
		for _, tc := range []struct {
			req  SweepRequest // the fields /v1/check shares
			want string
		}{
			{SweepRequest{Stack: "fip", N: 2, T: 2}, "t=2 with n=2"},
			{SweepRequest{Stack: "min", N: 3, T: 5}, "t=5 with n=3"},
			{SweepRequest{Stack: "fip", N: 3, T: 1, Horizon: -5}, "negative horizon -5"},
		} {
			resp := postJSON(t, ts.URL+path, tc.req)
			if body := string(readAll(t, resp.Body)); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, tc.want) {
				t.Errorf("%s %+v: status %d, body %q; want 400 naming %q", path, tc.req, resp.StatusCode, body, tc.want)
			}
		}
		resp := postJSON(t, ts.URL+path, SweepRequest{Stack: "fip", N: 2, T: 1})
		if readAll(t, resp.Body); resp.StatusCode != http.StatusOK {
			t.Errorf("%s after the refusals: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// queryKinds lists every knowledge query kind.
var queryKinds = []string{QueryExists, QueryKnowsExists, QueryKnowsCK, QueryNonfaulty, QueryDecided}

// referenceAnswer evaluates a knowledge request on sys directly, with the
// dimensions the server echoes.
func referenceAnswer(sys *episteme.System, req KnowledgeRequest) KnowledgeResponse {
	i, p, v := model.AgentID(req.Agent), episteme.Point{Run: req.Run, Time: req.Time}, model.Value(req.Value)
	want := KnowledgeResponse{Runs: len(sys.Runs), Horizon: sys.Horizon}
	switch req.Query {
	case QueryExists:
		want.Holds = sys.Exists(v, p)
	case QueryKnowsExists:
		want.Holds = sys.Knows(i, p, func(q episteme.Point) bool { return sys.Exists(v, q) })
	case QueryKnowsCK:
		want.Holds = sys.KnowsCK(i, p, v)
	case QueryNonfaulty:
		want.Holds = sys.Nonfaulty(i, p)
	case QueryDecided:
		want.Decided = -1
		if d := sys.DecidedVal(i, p); d.IsSet() {
			want.Holds, want.Decided = d == v, int(d)
		}
	}
	return want
}

func withQuery(base KnowledgeRequest, q string, agent, run, tm, v int) KnowledgeRequest {
	base.Query, base.Agent, base.Run, base.Time, base.Value = q, agent, run, tm, v
	return base
}

// TestLRUEvictionAndSingleflight drives the systemLRU directly with
// counted fake builders.
func TestLRUEvictionAndSingleflight(t *testing.T) {
	met := newMetrics()
	lru := newSystemLRU(2, met)
	ctx := context.Background()

	var builds atomic.Int64
	builder := func(context.Context) (*episteme.System, error) {
		builds.Add(1)
		return &episteme.System{}, nil
	}

	// Singleflight: N concurrent gets for one cold key build once.
	const waiters = 16
	gate := make(chan struct{})
	slowBuilder := func(context.Context) (*episteme.System, error) {
		<-gate
		return builder(ctx)
	}
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := lru.get(ctx, "a", slowBuilder); err != nil {
				t.Errorf("get: %v", err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent gets ran %d builds, want 1", waiters, got)
	}
	if h, c := met.lruHits.Load(), met.lruCoalesced.Load(); h+c != waiters-1 {
		t.Fatalf("hits %d + coalesced %d, want %d followers", h, c, waiters-1)
	}

	// Eviction: capacity 2, third key evicts the least recently used.
	if _, err := lru.get(ctx, "b", builder); err != nil {
		t.Fatal(err)
	}
	if _, err := lru.get(ctx, "a", builder); err != nil { // refresh a
		t.Fatal(err)
	}
	if _, err := lru.get(ctx, "c", builder); err != nil { // evicts b
		t.Fatal(err)
	}
	if lru.len() != 2 {
		t.Fatalf("LRU holds %d, want 2", lru.len())
	}
	if lru.has("b") || !lru.has("a") || !lru.has("c") {
		t.Fatalf("LRU kept the wrong keys (b=%v a=%v c=%v)", lru.has("b"), lru.has("a"), lru.has("c"))
	}
	if met.lruEvictions.Load() != 1 {
		t.Fatalf("evictions %d, want 1", met.lruEvictions.Load())
	}
	wantBuilds := builds.Load()
	if _, err := lru.get(ctx, "b", builder); err != nil { // cold again
		t.Fatal(err)
	}
	if builds.Load() != wantBuilds+1 {
		t.Fatal("evicted key did not rebuild")
	}
}

// TestLRUSurvivesPanickingBuild is the regression for a build that panics
// (net/http recovers it per request): the key must not stay marked as
// building. The leader's panic propagates, a follower that coalesced onto
// the doomed build is released with an error, nothing is cached, and the
// next get for the key builds afresh.
func TestLRUSurvivesPanickingBuild(t *testing.T) {
	met := newMetrics()
	lru := newSystemLRU(2, met)
	ctx := context.Background()

	gate := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		lru.get(ctx, "a", func(context.Context) (*episteme.System, error) {
			<-gate
			panic("build blew up")
		})
	}()
	// The follower joins once the leader's build is registered.
	for met.lruMisses.Load() == 0 {
		runtime.Gosched()
	}
	followerDone := make(chan error, 1)
	go func() {
		_, err := lru.get(ctx, "a", func(context.Context) (*episteme.System, error) {
			// Reached only if the follower arrived after the panic cleared
			// the entry and became a leader itself; fail like a follower.
			return nil, errBuildPanicked
		})
		followerDone <- err
	}()
	for met.lruCoalesced.Load() == 0 {
		runtime.Gosched()
	}
	close(gate)

	if r := <-leaderDone; r != "build blew up" {
		t.Fatalf("leader recovered %v, want the build's panic", r)
	}
	select {
	case err := <-followerDone:
		if !errors.Is(err, errBuildPanicked) {
			t.Fatalf("follower of a panicked build got %v, want errBuildPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower of a panicked build blocks forever")
	}
	if lru.has("a") {
		t.Fatal("a panicked build was cached")
	}

	want := &episteme.System{}
	got := make(chan *episteme.System, 1)
	go func() {
		sys, err := lru.get(ctx, "a", func(context.Context) (*episteme.System, error) { return want, nil })
		if err != nil {
			t.Errorf("get after a panicked build: %v", err)
		}
		got <- sys
	}()
	select {
	case sys := <-got:
		if sys != want || !lru.has("a") {
			t.Fatalf("get after a panicked build returned %p (cached=%v), want the fresh build %p", sys, lru.has("a"), want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("get for a key whose build panicked blocks forever")
	}
}

// TestLRUFollowerSurvivesLeaderCancel is the regression for a leader
// whose client disconnects mid-build: the build runs on the leader's
// context and fails with its cancellation, but followers whose own
// contexts are live must not inherit that error (it would reach their
// clients as a 408). They look the key up again; one of them leads the
// one rebuild and both get its System.
func TestLRUFollowerSurvivesLeaderCancel(t *testing.T) {
	met := newMetrics()
	lru := newSystemLRU(2, met)

	leaderCtx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := lru.get(leaderCtx, "a", func(ctx context.Context) (*episteme.System, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		})
		leaderDone <- err
	}()
	// The followers join once the leader's build is registered.
	for met.lruMisses.Load() == 0 {
		runtime.Gosched()
	}
	want := &episteme.System{}
	var rebuilds atomic.Int64
	type result struct {
		sys *episteme.System
		err error
	}
	followers := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			sys, err := lru.get(context.Background(), "a", func(context.Context) (*episteme.System, error) {
				rebuilds.Add(1)
				return want, nil
			})
			followers <- result{sys, err}
		}()
	}
	for met.lruCoalesced.Load() < 2 {
		runtime.Gosched()
	}
	disconnect()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader whose context was cancelled got %v, want context.Canceled", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-followers:
			if r.err != nil || r.sys != want {
				t.Fatalf("follower with a live context got (%p, %v) from a build its leader abandoned, want the rebuilt System %p", r.sys, r.err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("follower of a cancelled build blocks forever")
		}
	}
	if n := rebuilds.Load(); n != 1 {
		t.Fatalf("%d rebuilds after the leader's cancellation, want exactly 1", n)
	}
	if !lru.has("a") {
		t.Fatal("the rebuilt System was not cached")
	}
}

// TestServerSingleflight asserts the end-to-end property: N concurrent
// knowledge queries against one cold stack trigger exactly one build.
func TestServerSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const concurrent = 24
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(KnowledgeRequest{Stack: "min", N: 3, T: 1, Query: QueryExists, Value: 1})
			resp, err := http.Post(ts.URL+"/v1/knowledge", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.met.lruMisses.Load(); got != 1 {
		t.Fatalf("%d concurrent queries ran %d builds, want 1", concurrent, got)
	}
	if got := s.lru.len(); got != 1 {
		t.Fatalf("LRU holds %d systems, want 1", got)
	}
}

// TestConcurrentMixedLoad drives the served mix of one sweep stripe, two
// checks and seven knowledge queries in every ten requests through an
// admission pool of 4 from 16 goroutines, retrying 429s as a client
// must, and checks every answer against a System built run by run: each
// stripe verifies end to end, each check is the WriteVerdicts block, and
// each knowledge answer is the reference's. The plan is fixed by the
// request index, so the 20 stripes always total 1,930 records.
func TestConcurrentMixedLoad(t *testing.T) {
	t.Run("small_admission_pool", func(t *testing.T) {
		const requests, workers, stripes = 200, 16, 16
		_, ts := newTestServer(t, Config{MaxInflight: 4, MaxParallelism: 1})
		stack, sys := buildReferenceSystem(t, "min", 3, 1)
		var wantCheck bytes.Buffer
		if err := fabric.WriteVerdicts(context.Background(), &wantCheck, sys, stack.Name, fabric.VerdictOptions{Optimality: true}); err != nil {
			t.Fatalf("reference verdicts: %v", err)
		}

		plan := func(i int) (string, any) {
			switch i % 10 {
			case 0:
				return "/v1/sweep", SweepRequest{Stack: "min", N: 3, T: 1, Shard: fmt.Sprintf("%d/%d", i%stripes, stripes), Parallelism: 1}
			case 1, 5:
				return "/v1/check", CheckRequest{Stack: "min", N: 3, T: 1, Parallelism: 1}
			}
			return "/v1/knowledge", KnowledgeRequest{Stack: "min", N: 3, T: 1,
				Query: queryKinds[i%len(queryKinds)], Agent: i % sys.N,
				Run: i % len(sys.Runs), Time: i % (sys.Horizon + 1), Value: i % 2}
		}
		// post runs off the test goroutine, so it reports instead of failing
		// the test; a 429 is the admission contract, answered by backing off.
		post := func(path string, req any) ([]byte, error) {
			payload, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			for attempt := 1; ; attempt++ {
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
				if err != nil {
					return nil, err
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					return nil, err
				case resp.StatusCode == http.StatusTooManyRequests && attempt < 100:
					time.Sleep(time.Duration(attempt) * time.Millisecond)
				case resp.StatusCode != http.StatusOK:
					return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
				default:
					return body, nil
				}
			}
		}

		bodies, errs := make([][]byte, requests), make([]error, requests)
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					bodies[i], errs[i] = post(plan(i))
				}
			}()
		}
		for i := 0; i < requests; i++ {
			work <- i
		}
		close(work)
		wg.Wait()

		var records int64
		for i, body := range bodies {
			path, req := plan(i)
			if errs[i] != nil {
				t.Fatalf("request %d (%s): %v", i, path, errs[i])
			}
			switch req := req.(type) {
			case SweepRequest:
				sum, err := core.VerifyOutcomeStream(bytes.NewReader(body))
				if err != nil {
					t.Fatalf("request %d: stripe %s fails verification: %v", i, req.Shard, err)
				}
				records += sum.Records
			case CheckRequest:
				if !bytes.Equal(body, wantCheck.Bytes()) {
					t.Fatalf("request %d: served verdicts differ from WriteVerdicts:\n got: %s\nwant: %s", i, body, wantCheck.Bytes())
				}
			case KnowledgeRequest:
				var got KnowledgeResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("request %d: decode: %v", i, err)
				}
				if want := referenceAnswer(sys, req); got != want {
					t.Fatalf("request %d: %+v answers %+v, want %+v", i, req, got, want)
				}
			}
		}
		if records != 1930 {
			t.Fatalf("the stripes hold %d records, want 1930", records)
		}
	})
}

// TestAdmission429 fills the in-flight pool and expects the next
// request to bounce without touching a handler.
func TestAdmission429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	resp := postJSON(t, ts.URL+"/v1/knowledge", KnowledgeRequest{Stack: "min", N: 3, T: 1, Query: QueryExists})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := s.met.rejects[kindKnowledge].Load(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	<-s.inflight
	<-s.inflight
	resp = postJSON(t, ts.URL+"/v1/knowledge", KnowledgeRequest{Stack: "min", N: 3, T: 1, Query: QueryExists, Value: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after freeing the pool: status %d, want 200", resp.StatusCode)
	}
}

// TestDrain pins the graceful-drain contract: in-flight requests
// finish, new work and health checks get 503.
func TestDrain(t *testing.T) {
	s := NewServer(Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := s.admit(kindSweep, func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", slow)
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/slow", "application/json", strings.NewReader("{}"))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered
	if s.Inflight() != 1 {
		t.Fatalf("inflight %d, want 1", s.Inflight())
	}

	s.Drain()
	s.Drain() // idempotent

	resp := postJSON(t, ts.URL+"/v1/knowledge", KnowledgeRequest{Stack: "min", N: 3, T: 1, Query: QueryExists})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new work during drain: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", hresp.StatusCode)
	}

	close(release)
	if got := <-done; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight %d after drain completion, want 0", s.Inflight())
	}
}

// TestMetricsContent serves a mixed load and asserts the exposition
// carries the promised series with sane values.
func TestMetricsContent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// One build, then hits.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/knowledge", KnowledgeRequest{Stack: "min", N: 3, T: 1, Query: QueryExists, Value: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("knowledge status %d", resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Stack: "min", N: 3, T: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	readAll(t, resp.Body)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text := string(readAll(t, mresp.Body))

	for _, want := range []string{
		`eba_requests_total{kind="knowledge"} 3`,
		`eba_requests_total{kind="sweep"} 1`,
		`eba_requests_total{kind="check"} 0`,
		`eba_system_lru_misses_total 1`,
		"eba_build_seconds_p99 ",
		"eba_request_seconds_knowledge_bucket{le=\"+Inf\"} 3",
		"# TYPE eba_build_seconds histogram",
		"eba_requests_per_second ",
		"eba_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// Two of the three knowledge queries hit the LRU (ratio > 0).
	if strings.Contains(text, "eba_system_lru_hit_ratio 0\n") {
		t.Error("LRU hit ratio is zero after repeated identical queries")
	}
	if !strings.Contains(text, "eba_sweep_records_total 1544\n") {
		t.Error("metrics exposition missing sweep record counter")
	}
	// Emin has a KeyPermuter: most of the sweep's 1,544 records are
	// relabeled from the 276 orbits' runs.
	if !strings.Contains(text, "eba_sweep_relabeled_total ") || strings.Contains(text, "eba_sweep_relabeled_total 0\n") {
		t.Error("metrics exposition reports no relabeled sweep records")
	}
}

// TestResultCacheBackedServer wires an on-disk result cache through the
// server and expects the exposition to report its traffic.
func TestResultCacheBackedServer(t *testing.T) {
	store, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: store, Fingerprint: "test"})
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Stack: "min", N: 3, T: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d", resp.StatusCode)
		}
		readAll(t, resp.Body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text := string(readAll(t, mresp.Body))
	if !strings.Contains(text, "eba_result_cache_hits_total") {
		t.Fatal("metrics exposition missing result cache series")
	}
	if strings.Contains(text, "eba_result_cache_hit_ratio 0\n") {
		t.Fatal("second identical sweep did not hit the result cache")
	}
}
