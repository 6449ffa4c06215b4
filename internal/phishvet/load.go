package phishvet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/farm").
	Path string
	// Dir is the absolute source directory.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check problems. Rules still run (go/types
	// recovers), but the CLI surfaces these and fails the run: diagnostics
	// from a package that does not compile are not trustworthy.
	TypeErrors []error
}

// Loader discovers, parses, and type-checks packages without go/packages:
// module-local import paths resolve straight to source directories under
// the module root, and everything else (the stdlib) is type-checked from
// GOROOT source via go/importer. One Loader caches both sides, so checking
// the whole tree pays the stdlib cost once.
//
// Test files are not loaded: the determinism invariants phishvet guards
// are about production output paths, and every rule exempts _test.go by
// construction.
type Loader struct {
	Fset       *token.FileSet
	moduleDir  string
	modulePath string
	std        types.Importer
	cache      map[string]*Package
	loading    map[string]bool
}

// NewLoader returns a loader rooted at the module containing dir (found by
// walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("phishvet: %w", err)
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("phishvet: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleDir:  root,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// modulePath reads the module declaration out of a go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("phishvet: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("phishvet: no module line in %s", gomod)
}

// Load resolves the patterns ("./...", "dir", "dir/...") relative to the
// module root and returns the matched packages, type-checked, in import
// path order. Directories named testdata, vendor, or starting with "." or
// "_" are skipped during "..." expansion but can be targeted explicitly —
// that is how the rule fixtures are vetted.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		walk := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			walk, pat = true, rest
		}
		if pat == "." || pat == "" {
			pat = l.moduleDir
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.moduleDir, pat)
		}
		if !walk {
			if hasGoFiles(pat) {
				dirs[pat] = true
			} else {
				return nil, fmt.Errorf("phishvet: no Go files in %s", pat)
			}
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != pat && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				dirs[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("phishvet: walking %s: %w", pat, err)
		}
	}
	var out []*Package
	for dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// loadDir parses and type-checks the package in dir (memoized by import
// path).
func (l *Loader) loadDir(dir string) (*Package, error) {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("phishvet: %s is outside module %s", dir, l.moduleDir)
	}
	path := l.modulePath
	if rel != "." {
		path = l.modulePath + "/" + filepath.ToSlash(rel)
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("phishvet: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("phishvet: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("phishvet: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("phishvet: no Go files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never returns a nil package; with the Error handler set it
	// recovers and keeps going, which is what we want — partial type
	// information still drives most rules, and TypeErrors fails the run.
	pkg.Types, _ = conf.Check(path, l.Fset, files, pkg.Info)
	l.cache[path] = pkg
	return pkg, nil
}

// loaderImporter adapts the Loader to types.Importer: module-local paths
// load from source directories, everything else defers to the GOROOT
// source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.moduleDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return pkg.Types, pkg.TypeErrors[0]
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
