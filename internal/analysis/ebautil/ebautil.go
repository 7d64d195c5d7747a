// Package ebautil holds the object-matching helpers shared by the
// contract analyzers. The analyzers identify the repo's contract-carrying
// functions by (package-path suffix, name) pairs so the same matchers
// work against the real tree (import paths rooted at "repro") and
// against analyzertest fixtures (import paths rooted wherever the
// fixture tree mounts them).
package ebautil

import (
	"go/ast"
	"go/types"
	"strings"
)

// PathHasSuffix reports whether the import path is suffix, or ends with
// "/"+suffix. Matching whole path segments keeps "internal/graph" from
// matching "internal/subgraph".
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// FuncObj resolves the *types.Func a call expression invokes, through
// parenthesization and method selections. It returns nil for calls to
// function-typed variables, conversions, and builtins.
func FuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.Fn(...).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsNil reports whether e is the predeclared nil.
func IsNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
