package shrink

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is the root module's path; bench/ is a module of its own
// whose path extends it, so every package's import path is modulePath
// joined with its directory.
const modulePath = "github.com/shrink-tm/shrink"

// deadAPIExempt lists the internal/ packages whose exported names are test
// support by design: other packages' tests call them, and no non-test file
// does.
var deadAPIExempt = map[string]bool{
	"internal/stm/enginetest": true,
	"internal/synctime":       true,
}

// deadAPIAllowed names the exported internal/ names that stay without a
// non-test caller, each with its reason. A key is a package-level name
// ("tkv.Open"), a method ("tkv.Store.CAS"), every method of a type
// ("tkvwal.SimFS.*") or a whole package ("verify.*"). An entry that covers
// no such name fails the test, so the list cannot outlive its reasons.
var deadAPIAllowed = map[string]string{
	"tkv.Store.CAS": "the store's synchronous single-key writes are Put, " +
		"Delete, Add and CAS, each the twin of its Async form; bench/ calls " +
		"the first three, the wire server CASAsync, and the store's tests " +
		"drive CAS as the fourth single-key write",
	"tkvwal.SimFS.*": "the fake disk's fault and power-cut controls: test " +
		"support that the tests of tkvwal, tkv and tkvrepl share",
	"verify.*": "the engines' chain and snapshot oracles, run by their own " +
		"tests; they stay until one checker for the store replaces them",
}

// TestEveryExportedNameHasACaller type-checks the non-test files of every
// package in the tree, bench/ and examples/ included, and fails on each
// exported package-level name or method declared under internal/ that no
// non-test file uses. A type named only in the receivers of its own methods
// is not used. A method also counts as used when its receiver implements an
// interface that has it: one declared in a checked package or in a package
// they import (fmt.Stringer reaches String), one the checked files spell,
// or error. An error type's Is, As and Unwrap count as used through package
// errors. Struct fields are out of scope: JSON and positional literals use
// them where the type checker records no use.
func TestEveryExportedNameHasACaller(t *testing.T) {
	tr := checkTree(t)
	used := tr.usedObjects()
	var dead []string
	covered := map[string]bool{}
	for _, path := range tr.order {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		if !strings.HasPrefix(rel, "internal/") || deadAPIExempt[rel] {
			continue
		}
		for _, obj := range declaredAPI(tr.pkgs[path]) {
			if used[obj] {
				continue
			}
			key := apiKey(obj)
			if entry, ok := allowedBy(key); ok {
				covered[entry] = true
				continue
			}
			pos := tr.fset.Position(obj.Pos())
			dead = append(dead, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, key))
		}
	}
	for entry := range deadAPIAllowed {
		if !covered[entry] {
			t.Errorf("allowlist entry %s covers no name without a caller: remove it", entry)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside _test.go files", d)
	}
	if len(dead) > 0 {
		t.Logf("%d names: delete each, move it into a _test.go file of the package whose tests use it, or allowlist it with its reason", len(dead))
	}
}

// allowedBy returns the allowlist entry that covers key: key itself, or
// key with its trailing components replaced by "*".
func allowedBy(key string) (string, bool) {
	for k := key; ; {
		if _, ok := deadAPIAllowed[k]; ok {
			return k, true
		}
		i := strings.LastIndex(strings.TrimSuffix(k, ".*"), ".")
		if i < 0 {
			return "", false
		}
		k = k[:i] + ".*"
	}
}

// checkedTree is every package of the tree, type-checked from its non-test
// files into one types.Info.
type checkedTree struct {
	fset  *token.FileSet
	dirs  map[string]*build.Package // import path -> its non-test files
	pkgs  map[string]*types.Package
	order []string // import paths, in the order checked
	std   types.Importer
	info  *types.Info
	recv  map[*ast.Ident]bool // the identifiers of method receivers
}

func checkTree(t *testing.T) *checkedTree {
	tr := &checkedTree{
		fset: token.NewFileSet(),
		dirs: map[string]*build.Package{},
		pkgs: map[string]*types.Package{},
		recv: map[*ast.Ident]bool{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		tr.dirs[strings.TrimSuffix(modulePath+"/"+filepath.ToSlash(path), "/.")] = bp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.std = stdImporter(t, tr.fset, tr.dirs)
	var paths []string
	for path := range tr.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := tr.Import(path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return tr
}

// stdImporter reads the compiler's export data of the standard packages
// the tree imports, located by one go list call (the gc importer's own
// lookup runs go list once per package).
func stdImporter(t *testing.T, fset *token.FileSet, dirs map[string]*build.Package) types.Importer {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	seen := map[string]bool{}
	for _, bp := range dirs {
		for _, imp := range bp.Imports {
			if dirs[imp] == nil && !seen[imp] {
				seen[imp] = true
				args = append(args, imp)
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fs.ErrNotExist
		}
		return os.Open(file)
	})
}

// Import type-checks a package of the tree from its non-test files (once),
// and reads every other one from export data.
func (tr *checkedTree) Import(path string) (*types.Package, error) {
	bp, ok := tr.dirs[path]
	if !ok {
		return tr.std.Import(path)
	}
	if pkg, ok := tr.pkgs[path]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(tr.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				ast.Inspect(fn.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						tr.recv[id] = true
					}
					return true
				})
			}
		}
	}
	conf := types.Config{Importer: tr}
	pkg, err := conf.Check(path, tr.fset, files, tr.info)
	if err != nil {
		return nil, err
	}
	tr.pkgs[path] = pkg
	tr.order = append(tr.order, path)
	return pkg, nil
}

// declaredAPI returns a package's exported package-level objects and the
// exported methods of its named types.
func declaredAPI(pkg *types.Package) []types.Object {
	var out []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, obj)
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						out = append(out, m)
					}
				}
			}
		}
	}
	return out
}

// apiKey names an object as the allowlist does: pkg.Name or pkg.Type.Method.
func apiKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Signature().Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				return obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// usedObjects returns every object a non-test file of the tree uses, by
// reference, through an interface its receiver implements, or (Is, As,
// Unwrap on an error type) through package errors. A type named only in
// the receivers of its own methods is not used.
func (tr *checkedTree) usedObjects() map[types.Object]bool {
	used := map[types.Object]bool{}
	for id, obj := range tr.info.Uses {
		if !tr.recv[id] {
			used[origin(obj)] = true
		}
	}
	for _, sel := range tr.info.Selections {
		used[origin(sel.Obj())] = true
	}

	// The interfaces a method may be called through: the named ones of the
	// checked packages and of what they import, every interface type the
	// checked files spell, and error.
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	seenPkg := map[*types.Package]bool{}
	addScope := func(pkg *types.Package) {
		if pkg == nil || seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	// The concrete types whose methods an interface may reach: the named
	// types of the checked packages and every instance of a generic one.
	var concrete []types.Type
	for _, path := range tr.order {
		pkg := tr.pkgs[path]
		addScope(pkg)
		for _, imp := range pkg.Imports() {
			addScope(imp)
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					concrete = append(concrete, named)
				}
			}
		}
	}
	seenInst := map[*types.Named]bool{}
	for _, tv := range tr.info.Types {
		if !tv.IsType() {
			continue
		}
		if named, ok := tv.Type.(*types.Named); ok && named.TypeArgs().Len() > 0 && !seenInst[named] {
			seenInst[named] = true
			concrete = append(concrete, named)
		}
		addIface(tv.Type)
	}
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	addIface(errorType)

	// A pointer's method set holds its element's, so *T implements every
	// interface T does.
	for _, typ := range concrete {
		ptr := types.NewPointer(typ)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
					used[origin(sel.Obj())] = true
				}
			}
		}
		if types.Implements(ptr, errorType) {
			for _, name := range []string{"Is", "As", "Unwrap"} {
				if sel := mset.Lookup(nil, name); sel != nil {
					used[origin(sel.Obj())] = true
				}
			}
		}
	}
	return used
}

// origin maps a generic instance's method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
