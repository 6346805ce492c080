// Package analysis is cyclops-vet's engine: a stdlib-only static-analysis
// pass over the whole module that enforces the repo's determinism,
// hot-path, and metrics invariants at compile time. It loads and
// type-checks every non-test package with go/parser + go/types (stdlib
// imports resolve through the source importer, so it works offline and
// adds nothing to go.mod), then runs a table of Rules over the typed ASTs
// and reports findings deterministically (path+line sorted).
//
// The rule catalog, the //cyclops: annotation grammar, and the procedure
// for adding a rule are documented in DESIGN.md §10.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module under
// analysis (non-test files only — the invariants cyclops-vet enforces are
// stated on production code; tests are free to use time.Now and maps).
type Package struct {
	// Path is the import path ("cyclops/internal/core").
	Path string
	// RelPath is the module-relative path ("internal/core", "." for the
	// module root package) — what rule scoping matches on, so fixture
	// trees analyze identically to the real module.
	RelPath string
	// Dir is the absolute directory.
	Dir string
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Module is a loaded module tree: every package, type-checked, plus the
// FileSet that positions every finding.
type Module struct {
	// Root is the absolute module root directory.
	Root string
	// Path is the module path from go.mod (or the explicit path given to
	// LoadTree for go.mod-less fixture trees).
	Path string
	Fset *token.FileSet
	// Pkgs are all packages sorted by import path.
	Pkgs []*Package

	// graph caches the lazily built static call graph (CallGraph()).
	graph *CallGraph
}

// stdImporter is the shared source importer for standard-library imports.
// It caches type-checked stdlib packages across loads (fixture tests load
// several trees; re-checking fmt's dependency closure per tree would
// dominate the run time) and is serialized because srcimporter makes no
// concurrency promises.
var (
	stdImporterMu sync.Mutex
	stdImporterV  types.Importer
)

func stdImport(fset *token.FileSet, path string) (*types.Package, error) {
	stdImporterMu.Lock()
	defer stdImporterMu.Unlock()
	if stdImporterV == nil {
		// One importer instance for the process: its cache keys off its
		// own FileSet, which is fine — positions inside stdlib packages
		// never appear in findings.
		stdImporterV = importer.ForCompiler(fset, "source", nil)
	}
	return stdImporterV.Import(path)
}

// moduleImporter resolves module-internal imports from the packages
// already checked this load (the loader checks in dependency order) and
// everything else through the shared stdlib source importer.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return stdImport(m.fset, path)
}

// LoadModule loads the module rooted at dir (which must contain go.mod).
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w (point cyclops-vet at a module root, or use -module for a fixture tree)", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s", filepath.Join(abs, "go.mod"))
	}
	return LoadTree(abs, modPath)
}

// LoadTree loads dir as if it were the root of a module named modPath,
// without requiring a go.mod — the entry point for the analyzer's own
// testdata fixture trees.
func LoadTree(dir, modPath string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mod := &Module{Root: abs, Path: modPath, Fset: token.NewFileSet()}

	type parsed struct {
		pkg     *Package
		imports []string // module-internal imports only
	}
	byPath := map[string]*parsed{}
	var paths []string

	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		// A nested go.mod starts another module (perfbench/), which go
		// build ./... skips too: its uses of this module's exports are
		// not this module's own.
		if _, serr := os.Stat(filepath.Join(path, "go.mod")); path != abs && serr == nil {
			return filepath.SkipDir
		}
		files, perr := parseDir(mod.Fset, path)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(abs, path)
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + rel
		}
		p := &parsed{pkg: &Package{Path: imp, RelPath: rel, Dir: path, Files: files}}
		for _, f := range files {
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					p.imports = append(p.imports, ip)
				}
			}
		}
		byPath[imp] = p
		paths = append(paths, imp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)

	// Type-check in dependency order (DFS postorder over module-internal
	// imports; starting points and neighbor expansion are both sorted, so
	// the whole load is deterministic).
	checked := map[string]*types.Package{}
	state := map[string]int{} // 0 new, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		p := byPath[path]
		if p == nil || state[path] == 2 {
			return nil
		}
		if state[path] == 1 {
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = 1
		deps := append([]string(nil), p.imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: &moduleImporter{fset: mod.Fset, pkgs: checked}}
		tp, err := conf.Check(path, mod.Fset, p.pkg.Files, info)
		if err != nil {
			return fmt.Errorf("analysis: type-checking %s: %w", path, err)
		}
		p.pkg.Types = tp
		p.pkg.Info = info
		checked[path] = tp
		state[path] = 2
		mod.Pkgs = append(mod.Pkgs, p.pkg)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	return mod, nil
}

// parseDir parses the non-test, non-ignored .go files of one directory,
// in sorted file-name order. Directories whose .go files belong to
// multiple packages (a stray "package main" fixture next to a library)
// are rejected — the module layout this analyzer serves never does that.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s: packages %s and %s in one directory", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, nil
}
