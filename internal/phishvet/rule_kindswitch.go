package phishvet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The kindswitch rule enforces exhaustive switches over the repo's closed
// const sets: journal record kinds and sync policies, session outcomes
// (crawler's and the farm's run-level extras), chaos fault classes, trace
// span kinds. These sets grow — the triage funnel added two outcomes,
// the run manifest a record kind — and a switch in a resume/merge/report
// path that silently falls through a new member is exactly how a record
// kind becomes data corruption instead of a compile-time question.
//
// A switch participates when it has no default clause and at least one
// case resolves to a member of a registered set; it must then cover every
// member of each set it touches. A default arm opts out — the author has
// said what "anything else" means.

// closedSets registers each set by defining-package path segment and
// const-name prefix. Membership is enumerated from the package's type
// information, so the sets track the source without a hand-kept list.
var closedSets = []struct {
	segs   string
	prefix string
	label  string
}{
	{"internal/journal", "Kind", "journal record kinds"},
	{"internal/journal", "Sync", "journal sync policies"},
	{"internal/crawler", "Outcome", "session outcomes"},
	{"internal/farm", "Outcome", "farm run-level outcomes"},
	{"internal/chaos", "Fault", "chaos fault classes"},
	{"internal/trace", "Kind", "trace span kinds"},
}

func kindswitchRule() Rule {
	return Rule{
		Name: "kindswitch",
		Doc:  "non-exhaustive switches over closed const sets (journal kinds, outcomes, fault classes)",
		Run: func(p *Pass) {
			for _, f := range p.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					sw, ok := n.(*ast.SwitchStmt)
					if !ok || sw.Tag == nil {
						return true
					}
					checkSwitch(p, sw)
					return true
				})
			}
		},
	}
}

func checkSwitch(p *Pass, sw *ast.SwitchStmt) {
	covered := map[string]bool{} // qualified "pkgpath.Name"
	// Track which registered sets the cases reference, keyed by the
	// defining package (so a fixture mimic and the real package never
	// merge) plus the set index.
	type setKey struct {
		pkg *types.Package
		idx int
	}
	referenced := map[setKey]bool{}
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default clause: the author handled "anything else"
		}
		for _, e := range cc.List {
			cn := constOf(p, e)
			if cn == nil || cn.Pkg() == nil {
				continue
			}
			covered[cn.Pkg().Path()+"."+cn.Name()] = true
			for i, set := range closedSets {
				if within(cn.Pkg().Path(), set.segs) && memberName(cn.Name(), set.prefix) {
					referenced[setKey{pkg: cn.Pkg(), idx: i}] = true
				}
			}
		}
	}
	var missing []string
	var labels []string
	for key := range referenced {
		set := closedSets[key.idx]
		labels = append(labels, set.label)
		scope := key.pkg.Scope()
		for _, name := range scope.Names() {
			cn, ok := scope.Lookup(name).(*types.Const)
			if !ok || !memberName(cn.Name(), set.prefix) {
				continue
			}
			if !covered[key.pkg.Path()+"."+cn.Name()] {
				missing = append(missing, cn.Name())
			}
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	sort.Strings(labels)
	p.Reportf(sw.Pos(),
		"switch over %s has no default and misses %s: handle every member or add a default arm",
		strings.Join(labels, " + "), strings.Join(missing, ", "))
}

// memberName reports whether name belongs to a set with the given prefix:
// the prefix followed by a capitalized member name (so the type "Kind"
// itself, were it a const, would not match "Kind").
func memberName(name, prefix string) bool {
	return len(name) > len(prefix) && strings.HasPrefix(name, prefix)
}

// constOf resolves a case expression to the package-level constant it
// names, or nil.
func constOf(p *Pass, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	cn, _ := p.Pkg.Info.Uses[id].(*types.Const)
	return cn
}
