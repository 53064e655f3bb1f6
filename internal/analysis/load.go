package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Loader type-checks the packages of one module from source, resolving
// imports through compiler export data obtained from a single
// `go list -deps -export` invocation. This is the offline substitute for
// x/tools/go/packages: the go command compiles (or reuses from the build
// cache) every dependency and hands back the object files, which the
// standard library's gc importer reads directly. No network, no module
// cache, no generated files on disk.
type Loader struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Module is the module path declared in go.mod.
	Module string
	// Fset positions every file loaded through this loader.
	Fset *token.FileSet

	pkgs map[string]*listedPackage // import path -> metadata

	mu     sync.Mutex
	types  map[string]*types.Package // import cache for the gc importer
	loaded map[string]*loadResult    // Load memo: analyzers resolve cross-package syntax on demand
	imp    types.ImporterFrom
}

type loadResult struct {
	pkg *Package
	err error
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// A Package is one fully parsed and type-checked module package, ready
// for analyzers.
type Package struct {
	Path    string // full import path
	RelPath string // module-relative path ("" for the root package)
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// NewLoader lists and prepares the module rooted at dir. The go command
// must be on PATH (it always is in this repository's CI and dev images).
func NewLoader(dir string) (*Loader, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(dir)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	l := &Loader{
		Dir:    dir,
		Module: module,
		Fset:   token.NewFileSet(),
		pkgs:   make(map[string]*listedPackage),
		types:  make(map[string]*types.Package),
		loaded: make(map[string]*loadResult),
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		cp := p
		l.pkgs[p.ImportPath] = &cp
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup).(types.ImporterFrom)
	return l, nil
}

// modulePath reads the module declaration out of dir's go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module declaration in %s/go.mod", dir)
}

// ModulePackages returns the import paths of every package in the
// module, sorted, excluding anything under a testdata directory (fixture
// code deliberately violates the invariants).
func (l *Loader) ModulePackages() []string {
	var paths []string
	for path, p := range l.pkgs {
		if p.Standard || !inModule(path, l.Module) {
			continue
		}
		// Skip fixture code under the module's own testdata directories
		// (relative to the module root, so a module that itself lives
		// under some testdata dir — like this package's fixtures — still
		// lints fully).
		if rel, err := filepath.Rel(l.Dir, p.Dir); err == nil {
			if slashed := filepath.ToSlash(rel); slashed == "testdata" ||
				strings.HasPrefix(slashed, "testdata/") || strings.Contains(slashed, "/testdata/") {
				continue
			}
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

func inModule(path, module string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

// lookup feeds the gc importer the export data the go command produced.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	p, ok := l.pkgs[path]
	if !ok || p.Export == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(p.Export)
}

// Import implements types.Importer over the shared cache so analyzers'
// helper code (and the type-checker itself) resolve dependencies
// consistently.
func (l *Loader) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.types[path]; ok {
		return p, nil
	}
	p, err := l.imp.ImportFrom(path, l.Dir, 0)
	if err != nil {
		return nil, err
	}
	l.types[path] = p
	return p, nil
}

// Load parses and type-checks one module package (non-test files only —
// the invariants govern shipping code; tests may use rand, clocks and
// prints freely). Results are memoised: the seedflow analyzer resolves
// helper bodies across package boundaries through this path, and every
// package is parsed and checked at most once per loader regardless of
// how many analyzers or passes ask for it.
func (l *Loader) Load(path string) (*Package, error) {
	l.mu.Lock()
	if r, ok := l.loaded[path]; ok {
		l.mu.Unlock()
		return r.pkg, r.err
	}
	l.mu.Unlock()
	pkg, err := l.load(path)
	l.mu.Lock()
	l.loaded[path] = &loadResult{pkg: pkg, err: err}
	l.mu.Unlock()
	return pkg, err
}

func (l *Loader) load(path string) (*Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("package %q not in module listing", path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	return &Package{
		Path:    path,
		RelPath: rel,
		Dir:     p.Dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// RunAnalyzers applies every analyzer to the package and returns the
// surviving (non-waived) diagnostics in file/line order, plus waiver
// hygiene findings: after the analyzers run, any registered waiver for
// an analyzer that DID run but suppressed nothing is reported as dead.
func RunAnalyzers(pkg *Package, fset *token.FileSet, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	waivers := collectWaivers(fset, pkg.Files, opts, report)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			RelPath:   pkg.RelPath,
			Resolver:  opts.Resolver,
			report:    report,
			waivers:   waivers,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
		}
		ran[a.Name] = true
	}
	waivers.reportUnused(ran, report)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// sharedLoaders caches one Loader per module root for the life of the
// process, so the `go list -deps -export` walk and every package's parse
// and type-check run once no matter how many LintModule calls, analyzer
// fixture tests or flow-fact resolutions ask for the same module.
var sharedLoaders = struct {
	sync.Mutex
	m map[string]*Loader
}{m: make(map[string]*Loader)}

// SharedLoader returns the process-wide cached Loader for the module
// rooted at dir, creating it on first use.
func SharedLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	sharedLoaders.Lock()
	defer sharedLoaders.Unlock()
	if l, ok := sharedLoaders.m[abs]; ok {
		return l, nil
	}
	l, err := NewLoader(abs)
	if err != nil {
		return nil, err
	}
	sharedLoaders.m[abs] = l
	return l, nil
}

// LintModule loads every package of the module rooted at dir and runs
// the given analyzers over each, returning all diagnostics. Options
// default to zero values (no expiry clock, registered-suite waiver
// vocabulary).
func LintModule(dir string, analyzers []*Analyzer) ([]Diagnostic, error) {
	return LintModuleWith(dir, analyzers, RunOptions{})
}

// LintModuleWith is LintModule with explicit RunOptions. The loader is
// shared per module and wired into each pass as the Resolver, so flow
// analyzers can chase helpers across package boundaries without a second
// load.
func LintModuleWith(dir string, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	l, err := SharedLoader(dir)
	if err != nil {
		return nil, err
	}
	opts.Resolver = l
	var all []Diagnostic
	for _, path := range l.ModulePackages() {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		diags, err := RunAnalyzers(pkg, l.Fset, analyzers, opts)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
