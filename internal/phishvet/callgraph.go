package phishvet

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the flow-aware substrate under the phishvet 2.0 rules: a
// module-local call graph resolved purely from go/types object identity.
// No go/packages, no SSA — edges are the static calls the type checker can
// name (package functions, concrete methods), which is exactly the shape
// of this codebase's durability and concurrency paths (journal commit
// chain, farm → core → journal streaming). Calls through function values
// (cfg.Sink, cfg.Logf) and interface methods resolve to nothing and are
// treated as unknown by the rules built on top; that blind spot is
// documented per rule.

// FuncInfo ties one declared function or method to its declaration and
// the package it lives in.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// CallGraph maps every function declared in the analyzed packages to its
// statically resolvable callees. Calls made inside function literals are
// folded into the enclosing declaration: closures in this tree are defers
// and inline helpers that execute within the call, so attributing their
// effects to the declarer is the conservative choice.
type CallGraph struct {
	funcs   map[*types.Func]*FuncInfo
	callees map[*types.Func][]*types.Func
	// order preserves deterministic iteration (packages are loaded in
	// import-path order, decls in file order).
	order []*FuncInfo
}

// BuildCallGraph indexes every function declaration in pkgs and resolves
// its static call edges.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		funcs:   map[*types.Func]*FuncInfo{},
		callees: map[*types.Func][]*types.Func{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: decl, Pkg: pkg}
				g.funcs[fn] = fi
				g.order = append(g.order, fi)
			}
		}
	}
	for _, fi := range g.order {
		if fi.Decl.Body == nil {
			continue
		}
		seen := map[*types.Func]bool{}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := staticCallee(fi.Pkg.Info, call); callee != nil && !seen[callee] {
				seen[callee] = true
				g.callees[fi.Fn] = append(g.callees[fi.Fn], callee)
			}
			return true
		})
	}
	return g
}

// Info returns the declaration record for fn, or nil for functions the
// analyzed packages do not declare (stdlib, interface methods).
func (g *CallGraph) Info(fn *types.Func) *FuncInfo { return g.funcs[fn] }

// Callees returns fn's statically resolved callees in first-call order.
func (g *CallGraph) Callees(fn *types.Func) []*types.Func { return g.callees[fn] }

// Funcs returns every indexed declaration in deterministic order.
func (g *CallGraph) Funcs() []*FuncInfo { return g.order }

// staticCallee resolves a call expression to the *types.Func it invokes,
// when the type checker can name one: direct calls to package functions
// and method calls on concrete receivers. Conversions, builtins, function
// values, and function literals return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcDisplay renders fn compactly for diagnostics: methods keep their
// receiver, and import-path prefixes are stripped so messages stay
// readable ("(*os.File).Sync", "journal.AppendSession").
func funcDisplay(fn *types.Func) string {
	name := fn.FullName() // "os.WriteFile" or "(*net/http.Server).Serve"
	if strings.HasPrefix(name, "(") {
		if i := strings.Index(name, ")"); i >= 0 {
			recv := name[:i]
			if j := strings.LastIndex(recv, "/"); j >= 0 {
				prefix := "("
				if strings.HasPrefix(recv, "(*") {
					prefix = "(*"
				}
				name = prefix + recv[j+1:] + name[i:]
			}
		}
		return name
	}
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return name
}
