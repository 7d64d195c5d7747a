package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
	"sync"
)

// goldenFS holds the committed reference outputs. README.md ("Goldens")
// says how they were produced: by the repository's own CLIs at the
// commit that added this benchmark, never by this harness.
//
//go:embed golden
var goldenFS embed.FS

// streamGolden pins one merged outcome stream.
type streamGolden struct {
	SHA256  string `json:"sha256"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
}

// countGolden pins one exhaustive sweep's size.
type countGolden struct {
	Runs int // scenarios of the full SO(t) sweep
	Reps int // agent-permutation orbit representatives
}

// goldens resolves reference outputs from a file system laid out like
// benchmark/golden.
type goldens struct {
	fsys fs.FS
	root string

	once    sync.Once
	streams map[string]streamGolden
	counts  map[string]countGolden
	loadErr error
}

func committedGoldens() *goldens { return &goldens{fsys: goldenFS, root: "golden"} }

// verdict returns the committed verdict block of a stack at a size.
// variant selects the checks the block holds: "full" (implements, safety
// and, for fip, optimality), "optimality" (implements and optimality: the
// serving default) or "implements".
func (g *goldens) verdict(stack string, n, t int, variant string) ([]byte, error) {
	return fs.ReadFile(g.fsys, fmt.Sprintf("%s/verdict-%s-n%d-t%d-%s.txt", g.root, stack, n, t, variant))
}

func (g *goldens) load() error {
	g.once.Do(func() {
		data, err := fs.ReadFile(g.fsys, g.root+"/streams.json")
		if err != nil {
			g.loadErr = err
			return
		}
		if err := json.Unmarshal(data, &g.streams); err != nil {
			g.loadErr = fmt.Errorf("golden streams.json: %w", err)
			return
		}
		data, err = fs.ReadFile(g.fsys, g.root+"/counts.txt")
		if err != nil {
			g.loadErr = err
			return
		}
		g.counts, g.loadErr = parseCounts(data)
	})
	return g.loadErr
}

// stream returns the pinned digest of a stack's unquotiented outcome
// stream: the whole (merged) sweep for stripes == 1, else stripe 0 of
// that many.
func (g *goldens) stream(stack string, n, t, stripes int) (streamGolden, error) {
	if err := g.load(); err != nil {
		return streamGolden{}, err
	}
	key := fmt.Sprintf("%s-n%d-t%d", stack, n, t)
	if stripes > 1 {
		key += fmt.Sprintf("-stripe-0-of-%d", stripes)
	}
	s, ok := g.streams[key]
	if !ok {
		return streamGolden{}, fmt.Errorf("no golden stream %s", key)
	}
	return s, nil
}

// count returns the pinned run and representative counts of the SO(t)
// sweep at a size (they do not depend on the stack).
func (g *goldens) count(n, t int) (countGolden, error) {
	if err := g.load(); err != nil {
		return countGolden{}, err
	}
	c, ok := g.counts[fmt.Sprintf("n%d-t%d", n, t)]
	if !ok {
		return countGolden{}, fmt.Errorf("no golden counts for n=%d t=%d", n, t)
	}
	return c, nil
}

// parseCounts reads counts.txt: '#' comments, then one
// "n<N>-t<T> runs=<R> reps=<P>" line per size.
func parseCounts(data []byte) (map[string]countGolden, error) {
	out := make(map[string]countGolden)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || !strings.HasPrefix(fields[1], "runs=") || !strings.HasPrefix(fields[2], "reps=") {
			return nil, fmt.Errorf("golden counts.txt: malformed line %q", line)
		}
		runs, err1 := strconv.Atoi(strings.TrimPrefix(fields[1], "runs="))
		reps, err2 := strconv.Atoi(strings.TrimPrefix(fields[2], "reps="))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("golden counts.txt: malformed line %q", line)
		}
		out[fields[0]] = countGolden{Runs: runs, Reps: reps}
	}
	return out, nil
}

// closedFormRuns is the size of the exhaustive SO(t) sweep for t = 1 at
// horizon h: the failure-free pattern plus, for each of the n choices of
// the one faulty agent, every way it can omit messages to the n-1 others
// in each of h rounds (2^((n-1)h), the omission-free choice included, as
// the enumeration keeps "faulty but silent about it" apart from
// "nonfaulty"); each pattern crossed with the 2^n initial vectors.
func closedFormRuns(n, h int) int {
	return (1 + n*(1<<uint((n-1)*h))) * (1 << uint(n))
}

// closedFormReps counts the orbits of those scenarios under agent
// relabeling. Failure-free scenarios are determined by how many agents
// start with 0: n+1 orbits. With a faulty agent, relabel it to a fixed
// name; each other agent then has a type (its initial value and the h
// rounds in which the faulty agent omits to it: 2^(h+1) types), the
// orbit is the multiset of the n-1 types, and the faulty agent's own
// initial value doubles the count: 2*C(n-2+2^(h+1), n-1).
func closedFormReps(n, h int) int {
	types := 1 << uint(h+1)
	return n + 1 + 2*binomial(n-2+types, n-1)
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

// checker tallies golden comparisons: every comparison is one attempted
// operation, every mismatch one failed operation.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	details   []string
}

// ok records a comparison's outcome.
func (c *checker) ok(pass bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !pass {
		c.failed++
		if len(c.details) < 10 {
			c.details = append(c.details, fmt.Sprintf(format, args...))
		}
	}
	return pass
}

// equalBytes compares an output with its golden.
func (c *checker) equalBytes(got, want []byte, what string) bool {
	return c.ok(bytes.Equal(got, want), "%s differs from its golden (%d bytes, want %d)", what, len(got), len(want))
}

// equalInt compares a count with its golden.
func (c *checker) equalInt(got, want int64, what string) bool {
	return c.ok(got == want, "%s = %d, golden says %d", what, got, want)
}

// failedShare is failed over attempted operations.
func (c *checker) failedShare() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
