package phishvet

import (
	"go/ast"
)

// atomicwriteFuncs are the os entry points that create or clobber a file
// in place. Run artifacts must go through the two writers a crash cannot
// leave half-written: session exports and reports through the
// temp+fsync+rename helpers in internal/sessionio, crawl records through
// the CRC-framed, append-only segments of internal/journal, whose reopen
// cuts a torn tail. So a crash never leaves a truncated artifact for a
// later analysis to choke on.
var atomicwriteFuncs = map[string]bool{"WriteFile": true, "Create": true}

func atomicwriteRule() Rule {
	return Rule{
		Name: "atomicwrite",
		Doc:  "direct os.WriteFile/os.Create outside sessionio/journal",
		Run: func(p *Pass) {
			if within(p.Pkg.Path, "internal/sessionio") || within(p.Pkg.Path, "internal/journal") {
				return
			}
			for _, f := range p.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					path, name := p.selectorPkgFunc(sel)
					if path == "os" && atomicwriteFuncs[name] {
						p.Reportf(sel.Pos(), "os.%s writes in place: run artifacts go through sessionio's atomic temp+fsync+rename writers or the journal's CRC-framed segments", name)
					}
					return true
				})
			}
		},
	}
}
