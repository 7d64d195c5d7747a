// Package determinism enforces the bit-identical-merge discipline of
// the shard-and-merge pipeline (core.OutcomeRecord streams,
// episteme.ShardIndex verdicts, fabric's fan-in): outputs that are
// digested, serialized, or diffed across machines must not depend on
// Go's randomized map iteration order or on ambient nondeterminism.
//
// Two rules:
//
//  1. Map-order leaks: a `range` statement over a map whose body
//     reaches a serialization or digest sink — a hash write, a JSON
//     encode, an fmt.Fprint* or io.Writer write, or one of the repo's
//     own stream writers (WriteVerdicts, WriteShardIndex, RunShard,
//     ComputeDigest and the append-style record encoder and digest
//     beneath it, digest chaining) — emits in randomized order.
//     Reported everywhere: any output produced under map iteration is
//     un-diffable, and the merge invariants compare streams byte for
//     byte.
//
//  2. Ambient nondeterminism in the pipeline packages (internal/core,
//     internal/episteme): calls to time.Now or to math/rand's global
//     (unseeded) top-level functions. Explicitly seeded *rand.Rand
//     values are deterministic and allowed anywhere.
//
// The escape hatch is a //eba:nondeterministic-ok comment on the exact
// offending line (a rationale after the marker is encouraged). A
// suppression that no longer suppresses anything is itself reported as
// stale, so waivers cannot outlive the code they excused.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/analysis/ebautil"
	"repro/internal/analysis/suppress"
)

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag randomized map iteration feeding serialization/digest sinks, and " +
		"time.Now/global math/rand in the digest-to-merge pipeline packages " +
		"(suppress a reviewed line with //eba:nondeterministic-ok)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// pipelinePkgs are the packages in which ambient nondeterminism
// (time.Now, global math/rand) is forbidden outright: everything they
// produce is digested and merged.
var pipelinePkgs = []string{"internal/core", "internal/episteme"}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := suppress.Collect(pass, "nondeterministic")

	inPipeline := false
	for _, s := range pipelinePkgs {
		if ebautil.PathHasSuffix(pass.Pkg.Path(), s) {
			inPipeline = true
			break
		}
	}

	report := func(pos ast.Node, format string, args ...interface{}) {
		if sup.Suppressed(pass.Fset, pos.Pos()) {
			return
		}
		pass.Reportf(pos.Pos(), format, args...)
	}

	ins.Preorder([]ast.Node{(*ast.RangeStmt)(nil), (*ast.CallExpr)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return
			}
			if sink := findSink(pass.TypesInfo, n.Body); sink != "" {
				report(n, "map iteration order reaches %s: ranging over a map emits in randomized order, breaking the byte-identical merge contract (collect and sort the keys, or suppress with //eba:nondeterministic-ok)", sink)
			}
		case *ast.CallExpr:
			if !inPipeline {
				return
			}
			fn := ebautil.FuncObj(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			path := fn.Pkg().Path()
			if path == "time" && fn.Name() == "Now" {
				report(n, "time.Now in a digest-to-merge pipeline package: record wall-clock data outside the digested stream, or suppress with //eba:nondeterministic-ok")
				return
			}
			if (path == "math/rand" || path == "math/rand/v2") && isGlobalRand(fn) {
				report(n, "global math/rand in a digest-to-merge pipeline package is seeded nondeterministically: thread an explicitly seeded *rand.Rand instead, or suppress with //eba:nondeterministic-ok")
			}
		}
	})

	sup.ReportStale(pass)
	return nil, nil
}

// isGlobalRand reports whether fn is a top-level math/rand function
// (rand.Intn, rand.Int63n, ...) as opposed to a method on an
// explicitly seeded *rand.Rand.
func isGlobalRand(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	// Constructors and plumbing are fine; it is drawing values from the
	// shared, nondeterministically seeded source that is flagged.
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8", "Seed":
		return false
	}
	return true
}

// findSink scans a range body for the first serialization or digest
// sink and returns a description of it, or "".
func findSink(info *types.Info, body *ast.BlockStmt) string {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sink = sinkName(info, call)
		return sink == ""
	})
	return sink
}

// repoSinks are the repo's own stream/digest writers, matched by
// package-path suffix and name.
var repoSinks = []struct{ pkg, name, desc string }{
	{"internal/fabric", "WriteVerdicts", "the deterministic verdict writer"},
	{"internal/episteme", "WriteShardIndex", "the shard-index writer"},
	{"internal/episteme", "Digest", "the shard-index digest"},
	{"internal/core", "RunShard", "the outcome-stream writer"},
	{"internal/core", "ComputeDigest", "the outcome-record digest"},
	{"internal/core", "appendDigest", "the outcome-record digest"},
	{"internal/core", "appendDigestPreimage", "the outcome-record digest"},
	{"internal/core", "appendRecordLine", "the outcome-record encoder"},
	{"internal/core", "appendFooterLine", "the outcome-stream footer encoder"},
	{"internal/core", "add", "the stripe digest chain"},
}

func sinkName(info *types.Info, call *ast.CallExpr) string {
	fn := ebautil.FuncObj(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil

	switch {
	case path == "fmt" && (name == "Fprintf" || name == "Fprint" || name == "Fprintln"):
		return "fmt." + name
	case path == "encoding/json" && (name == "Marshal" || name == "MarshalIndent"):
		return "json." + name
	case path == "encoding/json" && isMethod && name == "Encode":
		return "json.Encoder.Encode"
	}

	if isMethod && (name == "Write" || name == "WriteString" || name == "Sum") {
		recv := sig.Recv().Type()
		if isHashType(recv) {
			return "a hash write (" + recv.String() + ")"
		}
	}
	// Writes through an io.Writer-typed value: the emitted stream's
	// order is the iteration order.
	if isMethod && name == "Write" && isIOWriterIface(sig.Recv().Type()) {
		return "an io.Writer write"
	}

	for _, s := range repoSinks {
		if s.name != name {
			continue
		}
		if fn.Pkg() != nil && ebautil.PathHasSuffix(path, s.pkg) {
			return s.desc
		}
	}
	return ""
}

// isHashType reports whether t is declared in a crypto or hash
// package (sha256 digests, crc32, fnv, ...).
func isHashType(t types.Type) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return strings.HasPrefix(p, "crypto/") || p == "hash" || strings.HasPrefix(p, "hash/")
}

// isIOWriterIface reports whether t is the io.Writer interface type
// itself (a concrete buffer's Write is covered only when it is also a
// hash; plain local buffers are often reordered after the fact).
func isIOWriterIface(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Writer" && obj.Pkg() != nil && obj.Pkg().Path() == "io"
}
