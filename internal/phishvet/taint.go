package phishvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the forward taint engine under the detertaint rule: a
// flow-insensitive, field-sensitive dataflow over the call graph. Sources
// are reads of nondeterministic state (the wall clock — directly or
// through the internal/metrics seam — global math/rand, process
// identity); sinks are the functions whose output the reproduction pins
// byte-for-byte (journal appends, sessionio writes, fleet wire encoding,
// report rendering). A value is tainted if any part of what built it came
// from a source; a tainted value reaching a sink is a finding at the call
// site.
//
// Precision choices, in order of consequence:
//   - Field-sensitive on the base object: tainting p.Stats does not taint
//     p.Logs, which is what keeps the journal's session stream clean while
//     a clock-stamped field appended beside it is flagged. A read of p
//     whole carries the taint of every field stored into it, so a value
//     built by field stores and then returned or passed on stays tainted.
//   - Summaries are symbolic in the parameters: analyzing a function once
//     yields which params flow to which results and sinks, so taint steps
//     across call boundaries without reanalysis (the per-function summary
//     cache).
//   - Methods do not summarize writes to their receiver's fields, and
//     calls through function values or interface methods propagate taint
//     from arguments to results but not into summaries. Both are
//     under-approximations; the golden fixtures pin what is caught.
//   - Map iteration order stays the maporder rule's domain.

// taintMask is a bit set: bit 0 marks "derived from a nondeterminism
// source", bit i+1 marks "derived from parameter i".
type taintMask uint64

const maskSource taintMask = 1

func paramBit(i int) taintMask {
	if i > 61 {
		return 0
	}
	return 1 << (uint(i) + 1)
}

// taintKey addresses one tracked value: a variable, or one first-level
// field of it ("" is the whole variable).
type taintKey struct {
	obj   types.Object
	field string
}

// taintHit is one source→sink flow found while analyzing a function,
// reported by the rule when that function's package is checked.
type taintHit struct {
	pos  token.Pos
	sink string
	via  string // callee carrying the flow, "" when the sink is called directly
}

// taintSummary is the cached per-function result.
type taintSummary struct {
	// results holds, per result index, the taint produced independent of
	// the caller plus symbolic parameter bits.
	results []taintMask
	// paramToSink names the sink reached by each parameter index (the
	// receiver is parameter 0 on methods).
	paramToSink map[int]string
	hits        []taintHit
}

type taintAnalysis struct {
	cg         *CallGraph
	summaries  map[*types.Func]*taintSummary
	inProgress map[*types.Func]bool
}

func newTaintAnalysis(cg *CallGraph) *taintAnalysis {
	return &taintAnalysis{
		cg:         cg,
		summaries:  map[*types.Func]*taintSummary{},
		inProgress: map[*types.Func]bool{},
	}
}

// summary computes (and caches) the taint summary for fn. Recursive
// cycles resolve optimistically: the inner frame sees an empty summary,
// the outer frame's fixpoint still converges on everything acyclic.
func (ta *taintAnalysis) summary(fn *types.Func) *taintSummary {
	if s, ok := ta.summaries[fn]; ok {
		return s
	}
	fi := ta.cg.Info(fn)
	if fi == nil || fi.Decl.Body == nil || ta.inProgress[fn] {
		return &taintSummary{}
	}
	ta.inProgress[fn] = true
	defer delete(ta.inProgress, fn)
	s := ta.analyze(fi)
	ta.summaries[fn] = s
	return s
}

// funcScope is the per-analysis mutable state for one declaration.
type funcScope struct {
	ta    *taintAnalysis
	fi    *FuncInfo
	state map[taintKey]taintMask
	// fields is, per variable, the union of its field keys' masks: a read
	// of the whole variable carries the taint of every field stored into
	// it.
	fields  map[types.Object]taintMask
	sum     *taintSummary
	hitSeen map[token.Pos]bool
	changed bool
}

func (ta *taintAnalysis) analyze(fi *FuncInfo) *taintSummary {
	fs := &funcScope{
		ta:      ta,
		fi:      fi,
		state:   map[taintKey]taintMask{},
		fields:  map[types.Object]taintMask{},
		sum:     &taintSummary{paramToSink: map[int]string{}},
		hitSeen: map[token.Pos]bool{},
	}
	// Seed the parameters (receiver first) with their symbolic bits.
	for i, obj := range paramObjects(fi) {
		if obj != nil {
			fs.state[taintKey{obj: obj, field: ""}] = paramBit(i)
		}
	}
	sig := fi.Fn.Type().(*types.Signature)
	fs.sum.results = make([]taintMask, sig.Results().Len())
	// Flow-insensitive fixpoint: masks only grow, so a handful of passes
	// reaches stability regardless of statement order (a closure assigned
	// before the value it captures is tainted still sees the taint).
	for pass := 0; pass < 8; pass++ {
		fs.changed = false
		fs.walk(fi.Decl.Body)
		if !fs.changed {
			break
		}
	}
	return fs.sum
}

// paramObjects lists the declaration's receiver and parameter objects in
// signature order.
func paramObjects(fi *FuncInfo) []types.Object {
	var out []types.Object
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				out = append(out, nil) // unnamed: position still consumes a slot
				continue
			}
			for _, name := range f.Names {
				out = append(out, fi.Pkg.Info.Defs[name])
			}
		}
	}
	addFields(fi.Decl.Recv)
	addFields(fi.Decl.Type.Params)
	return out
}

// namedResultObjects lists the named result objects, or nil if unnamed.
func namedResultObjects(fi *FuncInfo) []types.Object {
	if fi.Decl.Type.Results == nil {
		return nil
	}
	var out []types.Object
	for _, f := range fi.Decl.Type.Results.List {
		for _, name := range f.Names {
			out = append(out, fi.Pkg.Info.Defs[name])
		}
	}
	return out
}

func (fs *funcScope) grow(key taintKey, m taintMask) {
	if key.obj == nil || m == 0 {
		return
	}
	if old := fs.state[key]; old|m != old {
		fs.state[key] = old | m
		fs.changed = true
	}
	if key.field != "" {
		fs.fields[key.obj] |= m
	}
}

// whole is the taint of a read of the whole variable: its own key plus
// every field stored into it.
func (fs *funcScope) whole(obj types.Object) taintMask {
	return fs.state[taintKey{obj: obj}] | fs.fields[obj]
}

func (fs *funcScope) growResult(i int, m taintMask) {
	if i < len(fs.sum.results) && fs.sum.results[i]|m != fs.sum.results[i] {
		fs.sum.results[i] |= m
		fs.changed = true
	}
}

// walk drives statement handling; expression evaluation happens in eval,
// which also performs the sink checks.
func (fs *funcScope) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fs.assignStmt(n)
			return false
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						fs.valueSpec(vs)
					}
				}
			}
			return false
		case *ast.ReturnStmt:
			fs.returnStmt(n)
			return false
		case *ast.ExprStmt:
			fs.eval(n.X)
			return false
		case *ast.GoStmt:
			fs.eval(n.Call)
			return false
		case *ast.DeferStmt:
			fs.eval(n.Call)
			return false
		case *ast.SendStmt:
			fs.eval(n.Chan)
			fs.eval(n.Value)
			return false
		case *ast.IncDecStmt:
			fs.eval(n.X)
			return false
		case *ast.IfStmt:
			fs.eval(n.Cond)
			return true // Init/Body/Else continue as statements
		case *ast.ForStmt:
			if n.Cond != nil {
				fs.eval(n.Cond)
			}
			return true
		case *ast.SwitchStmt:
			if n.Tag != nil {
				fs.eval(n.Tag)
			}
			return true
		case *ast.CaseClause:
			for _, e := range n.List {
				fs.eval(e)
			}
			return true
		case *ast.RangeStmt:
			m := fs.eval(n.X)
			fs.assign(n.Key, m)
			fs.assign(n.Value, m)
			return true
		}
		return true
	})
}

func (fs *funcScope) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			masks := fs.callResults(call)
			for i, name := range vs.Names {
				if i < len(masks) {
					fs.assign(name, masks[i])
				}
			}
			return
		}
	}
	for i, v := range vs.Values {
		if i < len(vs.Names) {
			fs.assign(vs.Names[i], fs.eval(v))
		} else {
			fs.eval(v)
		}
	}
}

func (fs *funcScope) assignStmt(n *ast.AssignStmt) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		var masks []taintMask
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			masks = fs.callResults(call)
		} else {
			m := fs.eval(n.Rhs[0]) // map index / type assert "comma ok"
			masks = []taintMask{m, m}
		}
		for i, lhs := range n.Lhs {
			if i < len(masks) {
				fs.assign(lhs, masks[i])
			}
		}
		return
	}
	for i, rhs := range n.Rhs {
		m := fs.eval(rhs)
		if i < len(n.Lhs) {
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN ||
				n.Tok == token.MUL_ASSIGN || n.Tok == token.QUO_ASSIGN || n.Tok == token.OR_ASSIGN {
				m |= fs.eval(n.Lhs[i])
			}
			fs.assign(n.Lhs[i], m)
		}
	}
}

func (fs *funcScope) returnStmt(n *ast.ReturnStmt) {
	if len(n.Results) == 0 {
		// Naked return: read the named result objects.
		for i, obj := range namedResultObjects(fs.fi) {
			if obj != nil {
				fs.growResult(i, fs.whole(obj))
			}
		}
		return
	}
	if len(n.Results) == 1 && len(fs.sum.results) > 1 {
		if call, ok := ast.Unparen(n.Results[0]).(*ast.CallExpr); ok {
			for i, m := range fs.callResults(call) {
				fs.growResult(i, m)
			}
			return
		}
	}
	for i, e := range n.Results {
		fs.growResult(i, fs.eval(e))
	}
}

// assign taints the storage a left-hand side names: whole variables, one
// field of a based variable, or — coarsely — the base of an index or
// dereference.
func (fs *funcScope) assign(lhs ast.Expr, m taintMask) {
	if lhs == nil || m == 0 {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if obj := fs.objectOf(l); obj != nil {
			fs.grow(taintKey{obj: obj}, m)
		}
	case *ast.SelectorExpr:
		if obj, field := fs.baseField(l); obj != nil {
			fs.grow(taintKey{obj: obj, field: field}, m)
		}
	case *ast.IndexExpr:
		fs.assign(l.X, m)
	case *ast.StarExpr:
		fs.assign(l.X, m)
	}
}

func (fs *funcScope) objectOf(id *ast.Ident) types.Object {
	if obj := fs.fi.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return fs.fi.Pkg.Info.Defs[id]
}

// baseField peels a selector chain down to its base variable and the
// first-level field on it: p.Stats.Sites → (p, "Stats"). A non-variable
// base (package qualifier, call result) returns nil.
func (fs *funcScope) baseField(sel *ast.SelectorExpr) (types.Object, string) {
	field := sel.Sel.Name
	x := ast.Unparen(sel.X)
	for {
		switch cur := x.(type) {
		case *ast.SelectorExpr:
			field = cur.Sel.Name
			x = ast.Unparen(cur.X)
		case *ast.StarExpr:
			x = ast.Unparen(cur.X)
		case *ast.IndexExpr:
			x = ast.Unparen(cur.X)
		case *ast.Ident:
			obj := fs.objectOf(cur)
			if obj == nil {
				return nil, ""
			}
			if _, isPkg := obj.(*types.PkgName); isPkg {
				return nil, ""
			}
			return obj, field
		default:
			return nil, ""
		}
	}
}

// eval returns the taint mask of an expression, firing sink checks on any
// call it contains.
func (fs *funcScope) eval(e ast.Expr) taintMask {
	if e == nil {
		return 0
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := fs.objectOf(e); obj != nil {
			return fs.whole(obj)
		}
		return 0
	case *ast.SelectorExpr:
		if obj, field := fs.baseField(e); obj != nil {
			return fs.state[taintKey{obj: obj}] | fs.state[taintKey{obj: obj, field: field}]
		}
		return fs.eval(e.X)
	case *ast.CallExpr:
		masks := fs.callResults(e)
		var m taintMask
		for _, r := range masks {
			m |= r
		}
		return m
	case *ast.ParenExpr:
		return fs.eval(e.X)
	case *ast.StarExpr:
		return fs.eval(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return 0 // channel payloads are not tracked
		}
		return fs.eval(e.X)
	case *ast.BinaryExpr:
		return fs.eval(e.X) | fs.eval(e.Y)
	case *ast.IndexExpr:
		return fs.eval(e.X)
	case *ast.SliceExpr:
		return fs.eval(e.X)
	case *ast.TypeAssertExpr:
		return fs.eval(e.X)
	case *ast.CompositeLit:
		var m taintMask
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= fs.eval(kv.Value)
			} else {
				m |= fs.eval(el)
			}
		}
		return m
	case *ast.FuncLit:
		// The literal's body shares this scope's state and is walked as
		// statements by the enclosing fixpoint; the value itself is clean.
		return 0
	}
	return 0
}

// callResults evaluates one call: classifies sources, fires sink checks,
// and returns the per-result taint masks.
func (fs *funcScope) callResults(call *ast.CallExpr) []taintMask {
	info := fs.fi.Pkg.Info
	fn := staticCallee(info, call)
	if fn != nil && sourceFunc(fn) {
		return fs.uniformResults(call, maskSource)
	}
	// Argument masks, with a method's receiver prepended as argument 0.
	var args []taintMask
	if fn != nil && fn.Type().(*types.Signature).Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append(args, fs.eval(sel.X))
		} else {
			args = append(args, 0)
		}
	}
	for _, a := range call.Args {
		args = append(args, fs.eval(a))
	}
	if fn == nil {
		// Function value, interface method, conversion, builtin: taint
		// flows from arguments to results, nothing else is known.
		var m taintMask
		for _, a := range args {
			m |= a
		}
		return fs.uniformResults(call, m)
	}
	if fs.ta.cg.Info(fn) == nil {
		if sink, ok := sinkFunc(fn); ok {
			// A sink whose body is not loaded (interface method on a
			// journal type, partial run): still check the arguments.
			for _, a := range args {
				fs.noteSinkReach(call.Pos(), sink, "", a)
			}
			return fs.uniformResults(call, 0)
		}
		// Resolved but bodiless (stdlib, unloaded package): taint flows
		// from arguments to results — t.String() on a clock reading is
		// still the clock.
		var m taintMask
		for _, a := range args {
			m |= a
		}
		return fs.uniformResults(call, m)
	}
	if sink, ok := sinkFunc(fn); ok {
		recvSlots := 0
		if fn.Type().(*types.Signature).Recv() != nil {
			recvSlots = 1
		}
		for i := recvSlots; i < len(args); i++ {
			fs.noteSinkReach(call.Pos(), sink, "", args[i])
		}
		return fs.uniformResults(call, 0)
	}
	sum := fs.ta.summary(fn)
	// Interprocedural: substitute this call's argument masks into the
	// callee's symbolic parameter bits.
	expand := func(m taintMask) taintMask {
		out := m & maskSource
		for i, a := range args {
			if m&paramBit(i) != 0 {
				out |= a
			}
		}
		return out
	}
	sinkParams := make([]int, 0, len(sum.paramToSink))
	for i := range sum.paramToSink {
		sinkParams = append(sinkParams, i)
	}
	sort.Ints(sinkParams)
	for _, i := range sinkParams {
		if i < len(args) {
			fs.noteSinkReach(call.Pos(), sum.paramToSink[i], funcDisplay(fn), args[i])
		}
	}
	sig := fn.Type().(*types.Signature)
	out := make([]taintMask, sig.Results().Len())
	for i := range out {
		if i < len(sum.results) {
			out[i] = expand(sum.results[i])
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// uniformResults spreads one mask across every result of the call.
func (fs *funcScope) uniformResults(call *ast.CallExpr, m taintMask) []taintMask {
	tv, ok := fs.fi.Pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return []taintMask{m}
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		out := make([]taintMask, tup.Len())
		for i := range out {
			out[i] = m
		}
		return out
	}
	return []taintMask{m}
}

// noteSinkReach records what a mask reaching a sink means: a source bit
// is a finding in this function; parameter bits become part of the
// summary so callers inherit the check.
func (fs *funcScope) noteSinkReach(pos token.Pos, sink, via string, m taintMask) {
	if m&maskSource != 0 && !fs.hitSeen[pos] {
		fs.hitSeen[pos] = true
		fs.sum.hits = append(fs.sum.hits, taintHit{pos: pos, sink: sink, via: via})
		fs.changed = true
	}
	for i := 0; i < 62; i++ {
		if m&paramBit(i) != 0 {
			if _, dup := fs.sum.paramToSink[i]; !dup {
				fs.sum.paramToSink[i] = sink
				fs.changed = true
			}
		}
	}
}

// sourceFunc classifies nondeterminism sources: the wall clock read
// directly or through the metrics seam (the seam legalizes *reading* the
// clock for operational telemetry, not journaling what it returns),
// global math/rand, and process identity.
func sourceFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path, name := pkg.Path(), fn.Name()
	switch path {
	case "time":
		return name == "Now" || name == "Since" || name == "Until"
	case "math/rand", "math/rand/v2":
		// Package-level draws read the global source; a seeded *rand.Rand's
		// methods are deterministic.
		return fn.Type().(*types.Signature).Recv() == nil && !randConstructors[name]
	case "os":
		return name == "Getpid" || name == "Getppid" || name == "Hostname"
	}
	if within(path, "internal/metrics") {
		return name == "Now" || name == "Elapsed"
	}
	return false
}

// sinkFunc classifies the exported surfaces the reproduction pins
// byte-for-byte. Path matching is segment-based so fixture packages under
// testdata mimic production paths.
func sinkFunc(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	path, name := pkg.Path(), fn.Name()
	switch {
	case within(path, "internal/journal") && hasPrefix(name, "Append"):
		return "journal." + name, true
	case within(path, "internal/sessionio") && hasPrefix(name, "Write"):
		return "sessionio." + name, true
	case within(path, "internal/fleet") && (name == "writeJSON" || name == "post"):
		return "fleet." + name, true
	case within(path, "internal/report") && ast.IsExported(name):
		return "report." + name, true
	}
	return "", false
}

func hasPrefix(s, prefix string) bool {
	return len(s) > len(prefix) && s[:len(prefix)] == prefix
}
