// Package errtaxonomy protects the repo's error taxonomy and the
// documented exit-code mapping built on it (ErrVerification -> 2,
// everything else -> 1). Three rules:
//
//  1. Sentinel comparisons use errors.Is: comparing an error against a
//     repo-declared sentinel (a package-level Err* variable) with ==
//     or != , or switching on an error value with sentinel case
//     clauses, breaks the moment anyone wraps the sentinel — which the
//     taxonomy requires them to do.
//
//  2. Wrapping keeps identity: an fmt.Errorf call that passes a repo
//     sentinel must consume it with %w. Formatting a sentinel with %v
//     or %s produces an error that merely *reads* like the taxonomy
//     while errors.Is no longer matches it — the exact silent rot the
//     exit codes cannot survive.
//
//  3. The exit-code mapper is guarded: in a main package, a function
//     named exitCode must guard every non-{0,1} literal return with an
//     errors.Is test against a named sentinel, so code 2 cannot drift
//     away from the taxonomy without the analyzer noticing.
//
// A reviewed exception is waived with //eba:errtaxonomy-ok on the
// exact reported line; unused waivers are themselves diagnosed as
// stale.
package errtaxonomy

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/analysis/ebautil"
	"repro/internal/analysis/suppress"
)

// Analyzer is the errtaxonomy analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc: "require errors.Is for sentinel comparisons, %w when wrapping " +
		"ErrVerification/ErrTransport-style sentinels with fmt.Errorf, and " +
		"errors.Is guards in main-package exitCode mappers " +
		"(suppress a reviewed line with //eba:errtaxonomy-ok)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// reporter is the suppression-aware Reportf the checks go through.
type reporter struct {
	pass *analysis.Pass
	sup  *suppress.Set
}

func (r reporter) reportf(pos token.Pos, format string, args ...interface{}) {
	if r.sup.Suppressed(r.pass.Fset, pos) {
		return
	}
	r.pass.Reportf(pos, format, args...)
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := reporter{pass: pass, sup: suppress.Collect(pass, "errtaxonomy")}

	ins.Preorder([]ast.Node{(*ast.BinaryExpr)(nil), (*ast.SwitchStmt)(nil), (*ast.CallExpr)(nil), (*ast.FuncDecl)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			checkComparison(rep, n)
		case *ast.SwitchStmt:
			checkSwitch(rep, n)
		case *ast.CallExpr:
			checkErrorf(rep, n)
		case *ast.FuncDecl:
			checkExitCode(rep, n)
		}
	})
	rep.sup.ReportStale(pass)
	return nil, nil
}

// sentinelVar returns the package-level error sentinel e names, or nil.
// A sentinel is a package-level variable of error type whose name
// starts with "Err" or is "EOF" — which covers the repo's taxonomy
// (ErrVerification, ErrTransport, ErrConflict) and the stdlib
// sentinels (io.EOF, os.ErrNotExist) alike: errors.Is is strictly more
// robust than == for every one of them, since any layer in between may
// start wrapping.
func sentinelVar(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !strings.HasPrefix(v.Name(), "Err") && v.Name() != "EOF" {
		return nil
	}
	if !types.Implements(v.Type(), errorIface) && !types.Implements(types.NewPointer(v.Type()), errorIface) {
		return nil
	}
	return v
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && types.Implements(t, errorIface)
}

func checkComparison(rep reporter, be *ast.BinaryExpr) {
	pass := rep.pass
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	var sentinel *types.Var
	if v := sentinelVar(pass.TypesInfo, be.X); v != nil && isErrorType(pass.TypesInfo, be.Y) {
		sentinel = v
	} else if v := sentinelVar(pass.TypesInfo, be.Y); v != nil && isErrorType(pass.TypesInfo, be.X) {
		sentinel = v
	}
	if sentinel == nil {
		return
	}
	rep.reportf(be.Pos(), "comparing an error against sentinel %s with %s breaks once the sentinel is wrapped: use errors.Is",
		sentinel.Name(), be.Op)
}

func checkSwitch(rep reporter, sw *ast.SwitchStmt) {
	pass := rep.pass
	if sw.Tag == nil || !isErrorType(pass.TypesInfo, sw.Tag) {
		return
	}
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if v := sentinelVar(pass.TypesInfo, e); v != nil {
				rep.reportf(e.Pos(), "switching on an error value compares sentinel %s with ==, which breaks once the sentinel is wrapped: use switch { case errors.Is(err, %s): ... }",
					v.Name(), v.Name())
			}
		}
	}
}

// checkErrorf enforces %w for sentinel arguments of fmt.Errorf.
func checkErrorf(rep reporter, call *ast.CallExpr) {
	pass := rep.pass
	fn := ebautil.FuncObj(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Errorf" || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format := constant.StringVal(constant.MakeFromLiteral(lit.Value, lit.Kind, 0))
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		v := sentinelVar(pass.TypesInfo, arg)
		if v == nil || i >= len(verbs) {
			continue
		}
		if verbs[i] != 'w' {
			rep.reportf(arg.Pos(), "sentinel %s is formatted with %%%c, which drops its errors.Is identity from the resulting error: wrap it with %%w",
				v.Name(), verbs[i])
		}
	}
}

// formatVerbs extracts the verb letter of each argument-consuming verb
// in a Printf-style format string (flags, width, and precision are
// skipped; %% consumes nothing). Indexed verbs (%[1]v) are not used in
// this repo and are ignored.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.IndexByte("+-# 0123456789.*[]", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		verbs = append(verbs, format[i])
	}
	return verbs
}

// checkExitCode verifies the exit-code mapping convention: in a main
// package, every `return <literal>` other than 0 or 1 inside a
// function named exitCode must sit under a case or if whose condition
// calls errors.Is with a named sentinel.
func checkExitCode(rep reporter, fd *ast.FuncDecl) {
	pass := rep.pass
	if pass.Pkg.Name() != "main" || fd.Name.Name != "exitCode" || fd.Body == nil {
		return
	}
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		lit, ok := ast.Unparen(ret.Results[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.INT || lit.Value == "0" || lit.Value == "1" {
			return true
		}
		if !guardedByErrorsIs(pass.TypesInfo, stack) {
			rep.reportf(ret.Pos(), "exit code %s is returned without an errors.Is sentinel guard: the documented exit-code mapping rots silently — guard it with errors.Is(err, Err...)", lit.Value)
		}
		return true
	})
}

// guardedByErrorsIs walks the ancestor chain of a return statement
// looking for a case clause or if statement whose condition contains
// errors.Is(..., <sentinel named Err*>).
func guardedByErrorsIs(info *types.Info, stack []ast.Node) bool {
	hasGuard := func(cond ast.Node) bool {
		found := false
		ast.Inspect(cond, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := ebautil.FuncObj(info, call)
			if fn == nil || fn.Name() != "Is" || fn.Pkg() == nil || fn.Pkg().Path() != "errors" {
				return true
			}
			for _, a := range call.Args {
				name := ""
				switch x := ast.Unparen(a).(type) {
				case *ast.Ident:
					name = x.Name
				case *ast.SelectorExpr:
					name = x.Sel.Name
				}
				if strings.HasPrefix(name, "Err") {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.CaseClause:
			for _, e := range p.List {
				if hasGuard(e) {
					return true
				}
			}
		case *ast.IfStmt:
			if hasGuard(p.Cond) {
				return true
			}
		}
	}
	return false
}
