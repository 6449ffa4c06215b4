package phishvet

import (
	"go/ast"
	"go/types"
)

// The detertaint rule reports interprocedural flows from nondeterminism
// sources to the surfaces the reproduction pins byte-for-byte. The
// syntactic wallclock/globalrand rules stay on as fast-path checks — they
// flag the read itself at near-zero cost — but they cannot see a clock
// value that legally enters through the metrics seam and then crosses two
// call boundaries into a journal append. This rule follows the value: a
// metrics.Stopwatch elapsed reading built into farm.Stats three frames
// away from a journal append call is a finding at the append.
//
// Sources, sinks, and the engine's precision trade-offs are documented in
// taint.go.

func detertaintRule() Rule {
	return Rule{
		Name: "detertaint",
		Doc:  "nondeterministic values (clock, rand, pid) flowing into journaled/exported output",
		Run: func(p *Pass) {
			ta := p.taintState()
			for _, f := range p.Pkg.Files {
				for _, d := range f.Decls {
					decl, ok := d.(*ast.FuncDecl)
					if !ok || decl.Body == nil {
						continue
					}
					fn, ok := p.Pkg.Info.Defs[decl.Name].(*types.Func)
					if !ok {
						continue
					}
					for _, hit := range ta.summary(fn).hits {
						if hit.via != "" {
							p.Reportf(hit.pos,
								"nondeterministic value (wall clock, global rand, or process identity) reaches %s through %s: journaled/exported bytes must be a pure function of the feed seed",
								hit.sink, hit.via)
							continue
						}
						p.Reportf(hit.pos,
							"nondeterministic value (wall clock, global rand, or process identity) reaches %s: journaled/exported bytes must be a pure function of the feed seed",
							hit.sink)
					}
				}
			}
		},
	}
}
