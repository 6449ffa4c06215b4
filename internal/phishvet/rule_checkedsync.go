package phishvet

import (
	"go/ast"
	"go/types"
)

// The checkedsync rule flags EVERY call whose error return is silently
// dropped inside the two packages that own the durability path —
// internal/journal and internal/sessionio. In ordinary code an ignored
// error is a style question; on the commit path (the journal's one commit
// loop, segment rolls, tail truncation, session exports) it silently turns
// "synced to stable storage" into "probably synced", so the whole package
// is held to the checked-or-acknowledged standard.

func checkedsyncRule() Rule {
	return Rule{
		Name: "checkedsync",
		Doc:  "discarded error returns in journal/sessionio",
		Run: func(p *Pass) {
			if !within(p.Pkg.Path, "internal/journal") && !within(p.Pkg.Path, "internal/sessionio") {
				return
			}
			for _, f := range p.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					// Only silent drops are flagged: a call used as a bare
					// statement. `_ = f.Close()` is a visible, greppable
					// acknowledgment (the idiom on error-cleanup paths) and
					// passes; deferred closes pass because the durable
					// pattern is an explicit checked Sync+Close before
					// return, which this rule does enforce.
					stmt, ok := n.(*ast.ExprStmt)
					if !ok {
						return true
					}
					call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
					if !ok {
						return true
					}
					name := calleeName(call)
					if name == "" || !returnsError(p, call) {
						return true
					}
					p.Reportf(call.Pos(), "%s error discarded on the durability path: check it, or acknowledge with `_ = ...`", name)
					return true
				})
			}
		},
	}
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// returnsError reports whether the call produces at least one error value.
func returnsError(p *Pass, call *ast.CallExpr) bool {
	tv, ok := p.Pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(tv.Type)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
