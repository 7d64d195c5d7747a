package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/model"
	"repro/internal/serve"
)

// Request kinds of the serve mix.
const (
	kindSweep     = "sweep"
	kindCheck     = "check"
	kindKnowledge = "knowledge"
)

// planned is one request of the seeded plan with the answer it must
// get. The server is sent only the body; the seed stays here.
type planned struct {
	kind string // also the route: /v1/<kind>
	body []byte
	// want is the golden answer of a knowledge request; stripe the
	// stripe a sweep request asks for.
	want   serve.KnowledgeResponse
	stripe int
}

// mixPerBlock is the request mix: of every ten requests one sweep
// stripe, two checks and seven knowledge queries, in seeded order.
var mixPerBlock = []string{
	kindSweep, kindCheck, kindCheck,
	kindKnowledge, kindKnowledge, kindKnowledge, kindKnowledge, kindKnowledge, kindKnowledge, kindKnowledge,
}

var knowledgeQueries = []string{serve.QueryExists, serve.QueryKnowsExists, serve.QueryKnowsCK, serve.QueryNonfaulty, serve.QueryDecided}

// buildPlan generates the request plan from the seed: the order of kinds
// inside every block of ten, the order sweep stripes are asked for, and
// every knowledge query's kind, agent, run, time and value. sys is a
// System built directly through episteme (never through the server); the
// golden answers are read off its methods.
func buildPlan(seed int64, length int, stack string, t, stripes int, sys *episteme.System) ([]planned, error) {
	rng := rand.New(rand.NewSource(seed))
	stripeOrder := rng.Perm(stripes)
	nextStripe := 0
	plan := make([]planned, 0, length)
	for len(plan) < length {
		block := append([]string(nil), mixPerBlock...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if len(plan) == length {
				break
			}
			p := planned{kind: kind}
			var req any
			switch kind {
			case kindSweep:
				p.stripe = stripeOrder[nextStripe%stripes]
				nextStripe++
				req = serve.SweepRequest{Stack: stack, N: sys.N, T: t, Shard: fmt.Sprintf("%d/%d", p.stripe, stripes), Parallelism: 1}
			case kindCheck:
				req = serve.CheckRequest{Stack: stack, N: sys.N, T: t, Parallelism: 1}
			default:
				kr := serve.KnowledgeRequest{
					Stack: stack, N: sys.N, T: t,
					Query: knowledgeQueries[rng.Intn(len(knowledgeQueries))],
					Agent: rng.Intn(sys.N),
					Run:   rng.Intn(len(sys.Runs)),
					Time:  rng.Intn(sys.Horizon + 1),
					Value: rng.Intn(2),
				}
				p.want = goldenAnswer(sys, kr)
				req = kr
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			p.body = body
			plan = append(plan, p)
		}
	}
	return plan, nil
}

// goldenAnswer evaluates a knowledge query on a directly built System.
func goldenAnswer(sys *episteme.System, kr serve.KnowledgeRequest) serve.KnowledgeResponse {
	p := episteme.Point{Run: kr.Run, Time: kr.Time}
	i := model.AgentID(kr.Agent)
	v := model.Value(kr.Value)
	resp := serve.KnowledgeResponse{Runs: len(sys.Runs), Horizon: sys.Horizon}
	switch kr.Query {
	case serve.QueryExists:
		resp.Holds = sys.Exists(v, p)
	case serve.QueryKnowsExists:
		resp.Holds = sys.Knows(i, p, func(q episteme.Point) bool { return sys.Exists(v, q) })
	case serve.QueryKnowsCK:
		resp.Holds = sys.KnowsCK(i, p, v)
	case serve.QueryNonfaulty:
		resp.Holds = sys.Nonfaulty(i, p)
	case serve.QueryDecided:
		d := sys.DecidedVal(i, p)
		resp.Decided = -1
		if d.IsSet() {
			resp.Decided = int(d)
		}
		resp.Holds = d.IsSet() && d == v
	}
	return resp
}

// liveServer is a serve.Server on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	url  string
	hs   *http.Server
	done chan error
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: serve.NewServer(serve.Config{}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	<-ls.done
}

// client is one closed-loop caller with a connection of its own.
type client struct {
	http    *http.Client
	tr      *http.Transport
	retried int64
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1}
	return &client{http: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// maxRetries bounds how many admission bounces (429) a request absorbs
// before it counts as refused.
const maxRetries = 50

// post sends one request and returns the final status and body,
// absorbing 429s with a linear back-off.
func (c *client) post(url string, body []byte) (int, []byte, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries {
			c.retried++
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
			continue
		}
		return resp.StatusCode, data, nil
	}
}

// serveMix is the state of the serve-mixed workload.
type serveMix struct {
	rs        *runState
	stack     string
	plan      []planned
	checkGold []byte // the mix's check block
	coldGold  []byte // the cold check's block
	coldBody  []byte
	total     int64 // runs of the mix system
	stripes   int
	live      *liveServer
}

// verify checks one response against its planned answer.
func (sm *serveMix) verify(p planned, status int, body []byte, err error) {
	what := p.kind + " request"
	if !sm.rs.chk.ok(err == nil && status == http.StatusOK, "%s: status %d: %v", what, status, err) {
		return
	}
	switch p.kind {
	case kindSweep:
		sum, err := core.VerifyOutcomeStream(bytes.NewReader(body))
		want := core.StripeSize(sm.total, p.stripe, sm.stripes)
		sm.rs.chk.ok(err == nil && sum.Records == want && sum.Header.Shard == p.stripe,
			"served stripe %d/%d: %v (want %d records)", p.stripe, sm.stripes, err, want)
	case kindCheck:
		sm.rs.chk.equalBytes(body, sm.checkGold, "served check block")
	default:
		var got serve.KnowledgeResponse
		err := json.Unmarshal(body, &got)
		sm.rs.chk.ok(err == nil && got == p.want, "knowledge answer %+v, golden %+v (%s)", got, p.want, p.body)
	}
}

// setup generates the plan and its golden table from the seed, starts a
// fresh server and sends the one probe that makes it build the mix's
// System, so the timed mix measures serving, not one cold build.
func (sm *serveMix) setup() error {
	rs := sm.rs
	st, err := rs.stack(sm.stack, rs.sz.MixN)
	if err != nil {
		return err
	}
	sys, err := episteme.BuildSystem(context.Background(), episteme.ContextFor(st), st.Action, episteme.WithParallelism(rs.procs))
	if err != nil {
		return err
	}
	counts, err := rs.cfg.gold.count(st.N, st.T)
	if err != nil {
		return err
	}
	if len(sys.Runs) != counts.Runs {
		return fmt.Errorf("golden table system has %d runs; golden says %d", len(sys.Runs), counts.Runs)
	}
	sm.total, sm.stripes = int64(len(sys.Runs)), rs.sz.FleetStripes
	if sm.plan, err = buildPlan(rs.cfg.seed, rs.sz.PlanLen, sm.stack, st.T, sm.stripes, sys); err != nil {
		return err
	}
	if sm.checkGold, err = rs.cfg.gold.verdict(sm.stack, st.N, st.T, "optimality"); err != nil {
		return err
	}
	if sm.coldGold, err = rs.cfg.gold.verdict(sm.stack, rs.sz.ColdN, st.T, "implements"); err != nil {
		return err
	}
	if sm.coldBody, err = json.Marshal(serve.CheckRequest{Stack: sm.stack, N: rs.sz.ColdN, T: st.T, SkipOptimality: true}); err != nil {
		return err
	}
	if sm.live, err = startServer(); err != nil {
		return err
	}
	c := newClient()
	defer c.close()
	probe, err := json.Marshal(serve.KnowledgeRequest{Stack: sm.stack, N: st.N, T: st.T, Query: serve.QueryExists, Value: 1})
	if err != nil {
		return err
	}
	status, body, err := c.post(sm.live.url+"/v1/knowledge", probe)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("probe request: status %d: %s: %v", status, body, err)
	}
	return nil
}

// coldCheck goes from nothing to a served verdict: a fresh server and
// its first /v1/check, the build a first client pays. The server is
// returned still running, for the caller to scrape and stop.
func (sm *serveMix) coldCheck(parent spanRef) (*liveServer, error) {
	ls, err := startServer()
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	csp := sm.rs.tr.start(parent, "serve.cold_check")
	status, body, err := c.post(ls.url+"/v1/check", sm.coldBody)
	csp.end()
	if sm.rs.chk.ok(err == nil && status == http.StatusOK, "cold check: status %d: %v", status, err) {
		sm.rs.chk.equalBytes(body, sm.coldGold, "cold check block")
	}
	return ls, nil
}

// timedColdCheck runs coldCheck as one timed pass. In a traced run it
// also returns the server's own build time, scraped from /metrics after
// the pass.
func (sm *serveMix) timedColdCheck() (t ownTime, buildS float64, err error) {
	var ls *liveServer
	t, err = sm.rs.onePass(func(sp spanRef) error {
		var err error
		ls, err = sm.coldCheck(sp)
		return err
	})
	if err != nil {
		return t, 0, err
	}
	defer ls.stop()
	if sm.rs.tr != nil {
		scraped, err := scrape(ls.url)
		if err != nil {
			return t, 0, err
		}
		buildS = scraped["eba_build_seconds_sum"]
	}
	return t, buildS, nil
}

// mixResult is what one stretch of the mix measured.
type mixResult struct {
	byKind  map[string][]float64 // latencies per kind in seconds
	retried int64                // 429s absorbed
}

// mix drives the server with as many closed-loop clients as processors
// for budget seconds; every client takes the plan's next request, waits
// for the reply, verifies it, and takes the next.
func (sm *serveMix) mix(parent spanRef, budget float64) mixResult {
	type sample struct {
		kind string
		s    float64
	}
	clients := sm.rs.procs
	samples := make([][]sample, clients)
	var retried atomic.Int64
	var next atomic.Int64
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				p := sm.plan[int(i)%len(sm.plan)]
				sp := sm.rs.tr.start(parent, "serve."+p.kind)
				t0 := time.Now()
				status, body, err := c.post(sm.live.url+"/v1/"+p.kind, p.body)
				lat := time.Since(t0).Seconds()
				sp.end()
				sm.verify(p, status, body, err)
				samples[w] = append(samples[w], sample{p.kind, lat})
			}
			retried.Add(c.retried)
		}(w)
	}
	wg.Wait()
	res := mixResult{byKind: make(map[string][]float64), retried: retried.Load()}
	for _, ss := range samples {
		for _, s := range ss {
			res.byKind[s.kind] = append(res.byKind[s.kind], s.s)
		}
	}
	return res
}

// inProcess replays up to count planned requests of a kind straight
// through the server's handler — no socket, no client — and returns the
// median handler time in seconds. The difference to the served latency
// of the same kind is the transport's share.
func (sm *serveMix) inProcess(parent spanRef, kind string, count int) float64 {
	handler := sm.live.srv.Handler()
	var times []float64
	for _, p := range sm.plan {
		if p.kind != kind {
			continue
		}
		if len(times) == count {
			break
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/"+p.kind, bytes.NewReader(p.body))
		rec := httptest.NewRecorder()
		sp := sm.rs.tr.start(parent, "serve.inproc_"+kind)
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		times = append(times, time.Since(t0).Seconds())
		sp.end()
		sm.verify(p, rec.Code, rec.Body.Bytes(), nil)
	}
	return median(times)
}

// scrape reads a server's /metrics into name -> value, summing the
// series of one name over its labels.
func scrape(baseURL string) (map[string]float64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.Contains(name, "_bucket{") {
				continue
			}
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// runServeMixed is the serve-mixed workload.
func runServeMixed(rs *runState) error {
	sm := &serveMix{rs: rs, stack: "fip"}
	err := rs.repeatSetup(sm.setup, func() { sm.live.stop() })
	if err != nil {
		return err
	}
	defer sm.live.stop()

	// Warm-up, untimed: one cold check, so that the timed ones find the
	// memory an n=4 system takes already touched, and a short stretch of
	// the mix itself.
	var warmErr error
	rs.warmup(func() {
		sp := rs.tr.start(rs.root, spanProbe)
		defer sp.end()
		ls, err := sm.coldCheck(sp)
		if err != nil {
			warmErr = err
			return
		}
		ls.stop()
		sm.mix(sp, rs.cfg.seconds/20)
	})
	if warmErr != nil {
		return warmErr
	}

	// Cold checks: fresh servers, one check each.
	var cold passTimes
	var builds []float64
	for i := 0; i < rs.sz.ColdServers; i++ {
		t, build, err := sm.timedColdCheck()
		if err != nil {
			return err
		}
		cold = append(cold, t)
		builds = append(builds, build)
	}
	rs.notePhase("cold check", cold, 0, 0)
	rs.m.set("serve_cold_check_s", median(cold.walls()))

	// The mix. verified_per_s is taken over it alone: requests answered
	// and verified per second of its own wall.
	var mixed mixResult
	allocated := countAllocations()
	mixTime, err := rs.onePass(func(sp spanRef) error {
		mixed = sm.mix(sp, rs.cfg.seconds)
		return nil
	})
	mixAllocated := allocated()
	if err != nil {
		return err
	}
	var all []float64
	for _, kind := range []string{kindCheck, kindKnowledge, kindSweep} {
		all = append(all, mixed.byKind[kind]...)
		rs.m.set("serve_"+kind+"_p50_ms", median(mixed.byKind[kind])*1e3)
	}
	rs.notePhase("mix", passTimes{mixTime}, int64(len(all)), mixAllocated)
	rs.m.set("serve_rps", float64(len(all))/mixTime.wall)
	pct, tail := tailPercentile(all)
	if pct > 99 {
		pct, tail = 99, percentile(all, 99)
	}
	rs.m.set("serve_p99_ms", tail*1e3)
	rs.m.set("serve.tail_percentile", pct)
	rs.m.set("serve.retried_429", float64(mixed.retried))

	if rs.tr != nil {
		sp := rs.tr.start(rs.root, spanProbe)
		replays := rs.scaled(200, 20)
		rs.m.set("serve.inproc_check_ms", sm.inProcess(sp, kindCheck, replays)*1e3)
		rs.m.set("serve.inproc_knowledge_us", sm.inProcess(sp, kindKnowledge, replays)*1e6)
		sp.end()
		scraped, err := scrape(sm.live.url)
		if err != nil {
			return err
		}
		rs.m.set("serve.requests", scraped["eba_requests_total"])
		rs.m.set("serve.lru_hits", scraped["eba_system_lru_hits_total"])
		rs.m.set("serve.lru_misses", scraped["eba_system_lru_misses_total"])
		rs.m.set("serve.build_s", median(builds))
	}
	if ts := rs.finish(cold); ts != nil {
		for _, kind := range []string{kindCheck, kindKnowledge, kindSweep} {
			rs.m.set("serve."+kind+"_ms", median(ts.allUnder("serve."+kind, spanPass))*1e3)
		}
	}
	return nil
}
